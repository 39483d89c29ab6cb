package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"lantern/internal/datum"
)

// Parse parses a single SQL statement. A trailing semicolon is permitted.
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(tkSymbol, ";")
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input %q", p.peek().text)
	}
	return stmt, nil
}

// ParseSelect parses a statement and requires it to be a SELECT.
func ParseSelect(src string) (*SelectStmt, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqlparser: expected SELECT statement, got %T", stmt)
	}
	return sel, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(src string) ([]Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmts []Statement
	for !p.atEOF() {
		if p.accept(tkSymbol, ";") {
			continue
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, stmt)
		if !p.accept(tkSymbol, ";") && !p.atEOF() {
			return nil, p.errorf("expected ';' between statements, got %q", p.peek().text)
		}
	}
	return stmts, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) peekAt(n int) token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}
func (p *parser) advance() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) atEOF() bool    { return p.peek().kind == tkEOF }

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sqlparser: at offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

// accept consumes the next token if it matches kind and text.
func (p *parser) accept(kind tokenKind, text string) bool {
	if p.peek().kind == kind && p.peek().text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) acceptKeyword(kw string) bool { return p.accept(tkKeyword, kw) }

// acceptWord consumes the next token if it is the given word as either a
// keyword or a plain identifier (case-insensitive). Used for contextual
// keywords like ANALYZE and NATIVE that must stay valid identifiers
// outside their one grammatical position.
func (p *parser) acceptWord(w string) bool {
	t := p.peek()
	if (t.kind == tkKeyword || t.kind == tkIdent) && strings.EqualFold(t.text, w) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) expectSymbol(sym string) error {
	if !p.accept(tkSymbol, sym) {
		return p.errorf("expected %q, got %q", sym, p.peek().text)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if p.peek().kind != tkIdent {
		// Permit non-reserved-looking keywords as identifiers in a pinch
		// (e.g. a column named "date").
		if p.peek().kind == tkKeyword {
			switch p.peek().text {
			case "DATE", "TEXT", "INDEX", "FORMAT":
				return stringsToLower(p.advance().text), nil
			}
		}
		return "", p.errorf("expected identifier, got %q", p.peek().text)
	}
	return p.advance().text, nil
}

func stringsToLower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + ('a' - 'A')
		}
	}
	return string(b)
}

// --- Statements ----------------------------------------------------------

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.peek().kind == tkKeyword && p.peek().text == "SELECT":
		return p.parseSelect()
	case p.peek().kind == tkKeyword && p.peek().text == "CREATE":
		return p.parseCreate()
	case p.peek().kind == tkKeyword && p.peek().text == "INSERT":
		return p.parseInsert()
	case p.peek().kind == tkKeyword && p.peek().text == "UPDATE":
		return p.parseUpdate()
	case p.peek().kind == tkKeyword && p.peek().text == "DELETE":
		return p.parseDelete()
	case p.peek().kind == tkKeyword && p.peek().text == "EXPLAIN":
		return p.parseExplain()
	}
	return nil, p.errorf("expected statement, got %q", p.peek().text)
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{Limit: -1}
	sel.Distinct = p.acceptKeyword("DISTINCT")
	// DISTINCT(x) used as a function-ish form (as in the paper's Example 3.1)
	// is treated as DISTINCT over the select list.
	if sel.Distinct && p.peek().kind == tkSymbol && p.peek().text == "(" {
		// fall through: the parenthesized expression parses normally.
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	if p.acceptKeyword("FROM") {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, ref)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		if p.peek().kind != tkInt {
			return nil, p.errorf("expected integer after LIMIT, got %q", p.peek().text)
		}
		n, err := strconv.ParseInt(p.advance().text, 10, 64)
		if err != nil {
			return nil, err
		}
		sel.Limit = n
	}
	if p.acceptKeyword("OFFSET") {
		if p.peek().kind != tkInt {
			return nil, p.errorf("expected integer after OFFSET, got %q", p.peek().text)
		}
		n, err := strconv.ParseInt(p.advance().text, 10, 64)
		if err != nil {
			return nil, err
		}
		sel.Offset = n
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.accept(tkSymbol, "*") {
		return SelectItem{Star: true}, nil
	}
	// t.* form
	if p.peek().kind == tkIdent && p.peekAt(1).text == "." && p.peekAt(2).text == "*" {
		tbl := p.advance().text
		p.advance() // .
		p.advance() // *
		return SelectItem{TableStar: tbl}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.peek().kind == tkIdent {
		item.Alias = p.advance().text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	left, err := p.parseBaseTable()
	if err != nil {
		return nil, err
	}
	var ref TableRef = left
	for {
		var jt JoinType
		switch {
		case p.acceptKeyword("JOIN"):
			jt = InnerJoin
		case p.peek().kind == tkKeyword && p.peek().text == "INNER":
			p.advance()
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			jt = InnerJoin
		case p.peek().kind == tkKeyword && p.peek().text == "LEFT":
			p.advance()
			p.acceptKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			jt = LeftJoin
		default:
			return ref, nil
		}
		right, err := p.parseBaseTable()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ref = &JoinRef{Type: jt, Left: ref, Right: right, On: on}
	}
}

func (p *parser) parseBaseTable() (*BaseTable, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	bt := &BaseTable{Name: name}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		bt.Alias = alias
	} else if p.peek().kind == tkIdent {
		bt.Alias = p.advance().text
	}
	return bt, nil
}

func (p *parser) parseCreate() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("TABLE") {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		stmt := &CreateTableStmt{Name: name}
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			kind, err := p.parseColumnType()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, ColumnDef{Name: col, Type: kind})
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return stmt, nil
	}
	if p.acceptKeyword("INDEX") {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		table, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &CreateIndexStmt{Name: name, Table: table, Column: col}, nil
	}
	return nil, p.errorf("expected TABLE or INDEX after CREATE")
}

func (p *parser) parseColumnType() (datum.Kind, error) {
	t := p.peek()
	if t.kind != tkKeyword {
		return datum.KNull, p.errorf("expected column type, got %q", t.text)
	}
	p.advance()
	var kind datum.Kind
	switch t.text {
	case "INTEGER", "INT":
		kind = datum.KInt
	case "FLOAT", "DECIMAL":
		kind = datum.KFloat
	case "TEXT", "VARCHAR", "CHAR", "DATE":
		kind = datum.KString
	case "BOOLEAN":
		kind = datum.KBool
	default:
		return datum.KNull, p.errorf("unknown column type %q", t.text)
	}
	// Optional length/precision suffix, e.g. VARCHAR(25), DECIMAL(15,2).
	if p.accept(tkSymbol, "(") {
		for !p.accept(tkSymbol, ")") {
			if p.atEOF() {
				return datum.KNull, p.errorf("unterminated type suffix")
			}
			p.advance()
		}
	}
	return kind, nil
}

func (p *parser) parseInsert() (Statement, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: table}
	if p.accept(tkSymbol, "(") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, col)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	return stmt, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{Table: table}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		stmt.Alias = alias
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		// Permit a redundant table qualifier on the assignment target.
		if p.accept(tkSymbol, ".") {
			col, err = p.expectIdent()
			if err != nil {
				return nil, err
			}
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Sets = append(stmt.Sets, Assignment{Column: col, Value: val})
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

func (p *parser) parseDelete() (Statement, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: table}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

func (p *parser) parseExplain() (Statement, error) {
	if err := p.expectKeyword("EXPLAIN"); err != nil {
		return nil, err
	}
	stmt := &ExplainStmt{Format: ExplainText}
	switch {
	case p.accept(tkSymbol, "("):
		// Option list: EXPLAIN (ANALYZE), EXPLAIN (FORMAT JSON),
		// EXPLAIN (ANALYZE, FORMAT NATIVE), in any order.
		for {
			switch {
			case p.acceptWord("ANALYZE"):
				stmt.Analyze = true
			case p.acceptKeyword("FORMAT"):
				t := p.peek()
				f, ok := ExplainFormatNamed(t.text)
				if !ok || (t.kind != tkKeyword && t.kind != tkIdent) {
					return nil, p.errorf("expected JSON, XML, MYSQL, NATIVE or TEXT, got %q", t.text)
				}
				p.pos++
				stmt.Format = f
			default:
				return nil, p.errorf("expected ANALYZE or FORMAT, got %q", p.peek().text)
			}
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	case p.acceptWord("ANALYZE"):
		// PostgreSQL's bare form: EXPLAIN ANALYZE SELECT ...
		stmt.Analyze = true
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	stmt.Query = sel
	return stmt, nil
}

// --- Expressions ---------------------------------------------------------

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tkKeyword && p.peek().text == "AND" {
		p.advance()
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.peek().kind == tkKeyword && p.peek().text == "NOT" &&
		p.peekAt(1).text != "EXISTS" {
		p.advance()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: '!', X: x}, nil
	}
	return p.parseComparison()
}

var comparisonOps = map[string]BinOp{
	"=": OpEq, "<>": OpNe, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// Negation applying to LIKE / BETWEEN / IN.
	not := false
	if p.peek().kind == tkKeyword && p.peek().text == "NOT" {
		next := p.peekAt(1).text
		if next == "LIKE" || next == "BETWEEN" || next == "IN" {
			p.advance()
			not = true
		}
	}
	if p.peek().kind == tkSymbol {
		if op, ok := comparisonOps[p.peek().text]; ok {
			p.advance()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, Left: left, Right: right}, nil
		}
	}
	switch {
	case p.acceptKeyword("LIKE"):
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &LikeExpr{Not: not, X: left, Pattern: pat}, nil
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{Not: not, X: left, Lo: lo, Hi: hi}, nil
	case p.acceptKeyword("IN"):
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		in := &InExpr{Not: not, X: left}
		if p.peek().kind == tkKeyword && p.peek().text == "SELECT" {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			in.Subquery = sub
		} else {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				in.List = append(in.List, e)
				if !p.accept(tkSymbol, ",") {
					break
				}
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return in, nil
	case p.acceptKeyword("IS"):
		isNot := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{Not: isNot, X: left}, nil
	}
	return left, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch {
		case p.accept(tkSymbol, "+"):
			op = OpAdd
		case p.accept(tkSymbol, "-"):
			op = OpSub
		case p.accept(tkSymbol, "||"):
			op = OpConcat
		default:
			return left, nil
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch {
		case p.accept(tkSymbol, "*"):
			op = OpMul
		case p.accept(tkSymbol, "/"):
			op = OpDiv
		case p.accept(tkSymbol, "%"):
			op = OpMod
		default:
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tkSymbol, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negation of numeric literals for cleaner plans.
		if lit, ok := x.(*Literal); ok && lit.Value.IsNumeric() {
			if lit.Value.Kind() == datum.KInt {
				return &Literal{Value: datum.NewInt(-lit.Value.Int())}, nil
			}
			return &Literal{Value: datum.NewFloat(-lit.Value.Float())}, nil
		}
		return &UnaryExpr{Op: '-', X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tkInt:
		p.advance()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer %q", t.text)
		}
		return &Literal{Value: datum.NewInt(n)}, nil
	case tkFloat:
		p.advance()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errorf("bad float %q", t.text)
		}
		return &Literal{Value: datum.NewFloat(f)}, nil
	case tkString:
		p.advance()
		return &Literal{Value: datum.NewString(t.text)}, nil
	case tkKeyword:
		switch t.text {
		case "NULL":
			p.advance()
			return &Literal{Value: datum.Null}, nil
		case "TRUE":
			p.advance()
			return &Literal{Value: datum.NewBool(true)}, nil
		case "FALSE":
			p.advance()
			return &Literal{Value: datum.NewBool(false)}, nil
		case "CASE":
			return p.parseCase()
		case "EXISTS", "NOT":
			not := false
			if t.text == "NOT" {
				p.advance()
				not = true
			}
			if err := p.expectKeyword("EXISTS"); err != nil {
				return nil, err
			}
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &ExistsExpr{Not: not, Query: sub}, nil
		}
		return nil, p.errorf("unexpected keyword %q in expression", t.text)
	case tkIdent:
		return p.parseIdentExpr()
	case tkSymbol:
		if t.text == "(" {
			p.advance()
			if p.peek().kind == tkKeyword && p.peek().text == "SELECT" {
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Query: sub}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected token %q in expression", t.text)
}

func (p *parser) parseCase() (Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	ce := &CaseExpr{}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, WhenClause{Cond: cond, Result: res})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN clause")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return ce, nil
}

func (p *parser) parseIdentExpr() (Expr, error) {
	name := p.advance().text
	// Function call.
	if p.peek().kind == tkSymbol && p.peek().text == "(" {
		p.advance()
		fc := &FuncCall{Name: stringsUpper(name)}
		fc.Distinct = p.acceptKeyword("DISTINCT")
		if p.accept(tkSymbol, "*") {
			fc.Star = true
		} else if !(p.peek().kind == tkSymbol && p.peek().text == ")") {
			for {
				if p.peek().kind == tkKeyword && p.peek().text == "SELECT" {
					sub, err := p.parseSelect()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, &SubqueryExpr{Query: sub})
				} else {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, e)
				}
				if !p.accept(tkSymbol, ",") {
					break
				}
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	// Qualified column.
	if p.accept(tkSymbol, ".") {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &ColumnRef{Table: name, Name: col}, nil
	}
	return &ColumnRef{Name: name}, nil
}

func stringsUpper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'a' && c <= 'z' {
			b[i] = c - ('a' - 'A')
		}
	}
	return string(b)
}
