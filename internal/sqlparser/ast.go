// Package sqlparser implements a hand-written lexer and recursive-descent
// parser for the SQL subset the substrate engine executes: SELECT queries
// with joins, grouping, ordering and aggregation, plus the DDL/DML
// statements (CREATE TABLE/INDEX, INSERT, UPDATE, DELETE) that the POOL
// framework's translation layer and the data loaders need, and EXPLAIN.
package sqlparser

import (
	"strings"

	"lantern/internal/datum"
)

// Statement is the interface implemented by all top-level SQL statements.
type Statement interface{ stmt() }

// Expr is the interface implemented by all expression nodes.
type Expr interface{ expr() }

// TableRef is a reference in the FROM clause: a base table or a join.
type TableRef interface{ tableRef() }

// --- Statements ---------------------------------------------------------

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef // comma-separated list; each element may be a join tree
	Where    Expr       // nil when absent
	GroupBy  []Expr
	Having   Expr // nil when absent
	OrderBy  []OrderItem
	Limit    int64 // -1 when absent
	Offset   int64 // 0 when absent
}

// CreateTableStmt creates a base table.
type CreateTableStmt struct {
	Name    string
	Columns []ColumnDef
}

// ColumnDef is one column in a CREATE TABLE.
type ColumnDef struct {
	Name string
	Type datum.Kind
}

// CreateIndexStmt creates a secondary index on a single column.
type CreateIndexStmt struct {
	Name   string
	Table  string
	Column string
}

// InsertStmt inserts literal rows.
type InsertStmt struct {
	Table   string
	Columns []string // empty means table order
	Rows    [][]Expr
}

// UpdateStmt updates rows matching Where.
type UpdateStmt struct {
	Table string
	Alias string
	Sets  []Assignment
	Where Expr
}

// Assignment is one SET column = expr pair.
type Assignment struct {
	Column string
	Value  Expr
}

// DeleteStmt deletes rows matching Where.
type DeleteStmt struct {
	Table string
	Where Expr
}

// ExplainFormat selects the serialization of an EXPLAIN result.
type ExplainFormat int

// EXPLAIN output formats mirroring the supported engines: PostgreSQL-style
// text and JSON, SQL-Server-style XML showplan, MySQL-style
// EXPLAIN FORMAT=JSON, and the engine's own native plan serialization
// (the lossless engine↔narrator bridge format).
const (
	ExplainText ExplainFormat = iota
	ExplainJSON
	ExplainXML
	ExplainMySQL
	ExplainNative
)

// ExplainFormatNamed returns the format an EXPLAIN (FORMAT name) option
// selects: TEXT, JSON, XML, MYSQL or NATIVE, in any letter case.
func ExplainFormatNamed(name string) (ExplainFormat, bool) {
	switch strings.ToUpper(name) {
	case "TEXT":
		return ExplainText, true
	case "JSON":
		return ExplainJSON, true
	case "XML":
		return ExplainXML, true
	case "MYSQL":
		return ExplainMySQL, true
	case "NATIVE":
		return ExplainNative, true
	}
	return 0, false
}

// ExplainStmt wraps a SELECT and requests its plan instead of its rows.
// With Analyze set the query is also executed and the plan is annotated
// with per-operator runtime statistics (actual rows, loops, wall time) —
// PostgreSQL's EXPLAIN ANALYZE semantics.
type ExplainStmt struct {
	Format  ExplainFormat
	Analyze bool
	Query   *SelectStmt
}

func (*SelectStmt) stmt()      {}
func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}
func (*InsertStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*ExplainStmt) stmt()     {}

// --- Select parts --------------------------------------------------------

// SelectItem is a single output column: `*`, `t.*`, or expression [AS alias].
type SelectItem struct {
	Star      bool   // SELECT *
	TableStar string // SELECT t.* when non-empty
	Expr      Expr
	Alias     string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// JoinType enumerates the supported join kinds.
type JoinType int

// Supported join kinds. The substrate focuses on inner and left outer joins,
// which cover the workloads (TPC-H-style, SDSS, IMDB) shipped in
// internal/datasets.
const (
	InnerJoin JoinType = iota
	LeftJoin
)

// BaseTable is a named table with an optional alias.
type BaseTable struct {
	Name  string
	Alias string
}

// JoinRef is an explicit `a JOIN b ON cond`.
type JoinRef struct {
	Type  JoinType
	Left  TableRef
	Right TableRef
	On    Expr
}

func (*BaseTable) tableRef() {}
func (*JoinRef) tableRef()   {}

// --- Expressions ---------------------------------------------------------

// ColumnRef names a column, optionally qualified by table or alias.
type ColumnRef struct {
	Table string // optional qualifier
	Name  string
}

// Literal is a constant value.
type Literal struct {
	Value datum.D
}

// BinOp enumerates binary operators.
type BinOp int

// Binary operators, grouped by family. The parser assigns standard SQL
// precedence: OR < AND < NOT < comparison < additive < multiplicative.
const (
	OpOr BinOp = iota
	OpAnd
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpConcat
)

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op          BinOp
	Left, Right Expr
}

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op byte // '!' for NOT, '-' for negation
	X  Expr
}

// FuncCall is an aggregate or scalar function application.
type FuncCall struct {
	Name     string // upper-cased
	Star     bool   // COUNT(*)
	Distinct bool   // COUNT(DISTINCT x)
	Args     []Expr
}

// LikeExpr is `x [NOT] LIKE pattern`.
type LikeExpr struct {
	Not     bool
	X       Expr
	Pattern Expr
}

// BetweenExpr is `x [NOT] BETWEEN lo AND hi`.
type BetweenExpr struct {
	Not    bool
	X      Expr
	Lo, Hi Expr
}

// InExpr is `x [NOT] IN (list)` or `x [NOT] IN (subquery)`.
type InExpr struct {
	Not      bool
	X        Expr
	List     []Expr
	Subquery *SelectStmt // non-nil for IN (SELECT ...)
}

// IsNullExpr is `x IS [NOT] NULL`.
type IsNullExpr struct {
	Not bool
	X   Expr
}

// SubqueryExpr is a scalar subquery usable wherever an expression may
// appear (the POOL UPDATE translation relies on this).
type SubqueryExpr struct {
	Query *SelectStmt
}

// ExistsExpr is `[NOT] EXISTS (subquery)`.
type ExistsExpr struct {
	Not   bool
	Query *SelectStmt
}

// CaseExpr is a searched CASE expression.
type CaseExpr struct {
	Whens []WhenClause
	Else  Expr // nil when absent
}

// WhenClause is one WHEN cond THEN result arm.
type WhenClause struct {
	Cond   Expr
	Result Expr
}

func (*ColumnRef) expr()    {}
func (*Literal) expr()      {}
func (*BinaryExpr) expr()   {}
func (*UnaryExpr) expr()    {}
func (*FuncCall) expr()     {}
func (*LikeExpr) expr()     {}
func (*BetweenExpr) expr()  {}
func (*InExpr) expr()       {}
func (*IsNullExpr) expr()   {}
func (*SubqueryExpr) expr() {}
func (*ExistsExpr) expr()   {}
func (*CaseExpr) expr()     {}
