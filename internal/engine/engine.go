package engine

import (
	"fmt"

	"lantern/internal/catalog"
	"lantern/internal/datum"
	"lantern/internal/sqlparser"
	"lantern/internal/storage"
)

// Config holds the planner switches, patterned after PostgreSQL's
// enable_* settings. They exist both for tests and for the ablation
// benchmarks (different plan shapes produce different narrations).
type Config struct {
	EnableHashJoin  bool
	EnableMergeJoin bool
	EnableNestLoop  bool
	EnableIndexScan bool
	EnableHashAgg   bool
	// DPThreshold is the largest relation count planned with exhaustive
	// dynamic programming; larger joins fall back to greedy ordering.
	DPThreshold int
	// ReferenceExec routes execution through the materializing reference
	// executor (executor.go) instead of the batch executor (vec.go). Plan
	// choice is unaffected. It exists for differential testing and for
	// benchmarking against full materialization.
	ReferenceExec bool
	// MaxQueryParallelism caps the degree of intra-query parallelism
	// (parallel.go): 0 defaults to runtime.GOMAXPROCS, 1 (or negative)
	// forces serial execution, values above the core count deliberately
	// oversubscribe (useful for scheduling tests). The planner picks the
	// actual DOP per query from cardinality estimates, so small queries
	// stay serial regardless of this cap. The serving layer lowers the cap
	// per request from the envelope's max_parallelism hint.
	MaxQueryParallelism int
	// ParallelRowsPerWorker is the DOP policy divisor: the planner runs
	// one worker per this many estimated driver-scan output rows
	// (default 65536). Tests set it low to force parallelism on small
	// tables.
	ParallelRowsPerWorker int
	// DisableZonePruning turns off zone-map segment skipping in sequential
	// scans and the planner's prune-fraction scan costing. Results are
	// unaffected — every segment is scanned through the same predicate
	// loops. It exists for benchmarking the pruning win and as an escape
	// hatch.
	DisableZonePruning bool
}

// DefaultConfig enables every plan type.
func DefaultConfig() Config {
	return Config{
		EnableHashJoin:  true,
		EnableMergeJoin: true,
		EnableNestLoop:  true,
		EnableIndexScan: true,
		EnableHashAgg:   true,
		DPThreshold:     8,
	}
}

// Engine is one database instance: a catalog plus planner configuration.
type Engine struct {
	Cat *catalog.Catalog
	Cfg Config
}

// New creates an engine with an empty catalog.
func New(cfg Config) *Engine {
	return &Engine{Cat: catalog.New(), Cfg: cfg}
}

// NewWithCatalog creates an engine over an existing catalog — typically
// one opened over a data directory (catalog.Open), whose tables are
// disk-backed and served through the pager's buffer pool.
func NewWithCatalog(cfg Config, cat *catalog.Catalog) *Engine {
	return &Engine{Cat: cat, Cfg: cfg}
}

// NewDefault creates an engine with the default configuration.
func NewDefault() *Engine { return New(DefaultConfig()) }

// Result is the outcome of executing a statement.
type Result struct {
	Columns []string
	Rows    []storage.Row
	// Affected counts modified rows for DML; Plan carries EXPLAIN output.
	Affected int
	Plan     string
}

// Exec parses and executes a single SQL statement.
func (e *Engine) Exec(sql string) (*Result, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.ExecStmt(stmt)
}

// ExecScript executes a semicolon-separated sequence of statements,
// returning the result of the last one.
func (e *Engine) ExecScript(sql string) (*Result, error) {
	stmts, err := sqlparser.ParseScript(sql)
	if err != nil {
		return nil, err
	}
	var last *Result
	for _, s := range stmts {
		last, err = e.ExecStmt(s)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}

// ExecStmt executes a parsed statement.
func (e *Engine) ExecStmt(stmt sqlparser.Statement) (*Result, error) {
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		return e.runSelect(s)
	case *sqlparser.CreateTableStmt:
		cols := make([]storage.Column, len(s.Columns))
		for i, c := range s.Columns {
			cols[i] = storage.Column{Name: c.Name, Type: c.Type}
		}
		if _, err := e.Cat.CreateTable(s.Name, cols); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparser.CreateIndexStmt:
		t, err := e.Cat.Table(s.Table)
		if err != nil {
			return nil, err
		}
		if err := t.CreateIndex(s.Column); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparser.InsertStmt:
		return e.runInsert(s)
	case *sqlparser.UpdateStmt:
		return e.runUpdate(s)
	case *sqlparser.DeleteStmt:
		return e.runDelete(s)
	case *sqlparser.ExplainStmt:
		return e.runExplain(s)
	}
	return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
}

// Plan builds (but does not run) the physical plan for a SELECT.
func (e *Engine) Plan(sel *sqlparser.SelectStmt) (*Node, error) {
	return e.planSelect(sel)
}

// PlanSQL parses and plans a SELECT given as text.
func (e *Engine) PlanSQL(sql string) (*Node, error) {
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	return e.planSelect(sel)
}

// runSelect plans, executes, and projects a SELECT. Execution runs
// batch-at-a-time through the vectorized executor unless the config asks
// for the materializing reference path (kept as the differential oracle).
func (e *Engine) runSelect(sel *sqlparser.SelectStmt) (*Result, error) {
	plan, err := e.planSelect(sel)
	if err != nil {
		return nil, err
	}
	if !e.Cfg.ReferenceExec {
		return e.runSelectVec(sel, plan)
	}
	rows, err := e.execNode(plan)
	if err != nil {
		return nil, err
	}
	return e.project(sel, plan, rows)
}

// project computes the final select items over the plan's output rows.
func (e *Engine) project(sel *sqlparser.SelectStmt, plan *Node, rows []storage.Row) (*Result, error) {
	pr, err := e.newProjector(sel, plan)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: pr.columns}
	for _, r := range rows {
		out, err := pr.project(r)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

// projector renders plan output rows into the final select items. It is
// built once per query — stars expanded, computed expressions pre-bound
// against the plan schema — and then applied per batch on the batch
// pipeline (projectBatch), which is what lets the streaming query path
// project incrementally instead of materializing the whole result first,
// or row by row (project) over the reference executor's result.
type projector struct {
	columns []string
	pos     []int       // >= 0: direct copy of plan column
	bound   []boundExpr // set where pos < 0
	env     rowEnv
}

func (e *Engine) newProjector(sel *sqlparser.SelectStmt, plan *Node) (*projector, error) {
	// Expand stars into concrete schema columns.
	type outCol struct {
		name string
		expr sqlparser.Expr
		pos  int // >= 0: direct copy of plan column
	}
	var cols []outCol
	for _, it := range sel.Items {
		switch {
		case it.Star:
			for i, c := range plan.Schema {
				cols = append(cols, outCol{name: c.Name, pos: i})
			}
		case it.TableStar != "":
			found := false
			for i, c := range plan.Schema {
				if c.Qual == it.TableStar {
					cols = append(cols, outCol{name: c.Name, pos: i})
					found = true
				}
			}
			if !found {
				return nil, fmt.Errorf("engine: relation %q not found for %s.*", it.TableStar, it.TableStar)
			}
		default:
			cols = append(cols, outCol{name: itemName(it), expr: it.Expr, pos: -1})
		}
	}
	pr := &projector{
		columns: make([]string, len(cols)),
		pos:     make([]int, len(cols)),
		bound:   make([]boundExpr, len(cols)),
	}
	for i, c := range cols {
		pr.columns[i] = c.name
		pr.pos[i] = c.pos
		if c.pos >= 0 {
			continue
		}
		b, err := bindExpr(c.expr, plan.Schema, e.subquery)
		if err != nil {
			return nil, err
		}
		pr.bound[i] = b
	}
	return pr, nil
}

// project renders one plan output row. The returned row is freshly
// allocated and never aliases r.
func (p *projector) project(r storage.Row) (storage.Row, error) {
	p.env.left = r
	out := make(storage.Row, len(p.pos))
	for i, pos := range p.pos {
		if pos >= 0 {
			out[i] = r[pos]
			continue
		}
		v, err := p.bound[i](&p.env)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// projectBatch renders a whole batch into one flat datum arena: two
// allocations per batch instead of one per row. The returned rows are
// subslices of a fresh arena and may be retained indefinitely; values are
// copied out of the input rows (never aliased to the table heap), matching
// project's contract, so later in-place UPDATEs cannot reach into a
// previously returned result.
func (p *projector) projectBatch(in []storage.Row) ([]storage.Row, error) {
	width := len(p.pos)
	arena := make([]datum.D, 0, len(in)*width)
	rows := make([]storage.Row, len(in))
	for i, r := range in {
		n := len(arena)
		for j, pos := range p.pos {
			if pos >= 0 {
				arena = append(arena, r[pos])
				continue
			}
			p.env.left = r
			v, err := p.bound[j](&p.env)
			if err != nil {
				return nil, err
			}
			arena = append(arena, v)
		}
		rows[i] = storage.Row(arena[n:len(arena):len(arena)])
	}
	return rows, nil
}

func (e *Engine) runInsert(s *sqlparser.InsertStmt) (*Result, error) {
	t, err := e.Cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	colPos := make([]int, 0, len(s.Columns))
	if len(s.Columns) > 0 {
		for _, c := range s.Columns {
			p := t.ColumnIndex(c)
			if p < 0 {
				return nil, fmt.Errorf("engine: column %q of relation %q does not exist", c, s.Table)
			}
			colPos = append(colPos, p)
		}
	}
	ctx := &evalCtx{sub: e.subquery}
	// Evaluate every VALUES row first, then hand the whole batch to
	// storage in one call: validation happens once up front (an INSERT
	// that fails leaves the table untouched) and the batch seals full
	// segments as it fills instead of re-checking per row.
	batch := make([]storage.Row, 0, len(s.Rows))
	for _, exprRow := range s.Rows {
		row := make(storage.Row, len(t.Columns))
		for i := range row {
			row[i] = datum.Null
		}
		if len(s.Columns) > 0 {
			if len(exprRow) != len(s.Columns) {
				return nil, fmt.Errorf("engine: INSERT has %d values but %d columns", len(exprRow), len(s.Columns))
			}
			for i, ex := range exprRow {
				v, err := eval(ctx, ex)
				if err != nil {
					return nil, err
				}
				row[colPos[i]] = v
			}
		} else {
			if len(exprRow) != len(t.Columns) {
				return nil, fmt.Errorf("engine: INSERT has %d values but table has %d columns", len(exprRow), len(t.Columns))
			}
			for i, ex := range exprRow {
				v, err := eval(ctx, ex)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
		}
		batch = append(batch, row)
	}
	if err := t.InsertBatch(batch); err != nil {
		return nil, err
	}
	return &Result{Affected: len(batch)}, nil
}

func (e *Engine) runUpdate(s *sqlparser.UpdateStmt) (*Result, error) {
	t, err := e.Cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	alias := s.Alias
	if alias == "" {
		alias = s.Table
	}
	schema := scanSchema(t, alias)
	setPos := make([]int, len(s.Sets))
	for i, a := range s.Sets {
		p := t.ColumnIndex(a.Column)
		if p < 0 {
			return nil, fmt.Errorf("engine: column %q of relation %q does not exist", a.Column, s.Table)
		}
		setPos[i] = p
	}
	ctx := &evalCtx{schema: schema, sub: e.subquery}
	n, err := t.Update(func(r storage.Row) bool {
		ctx.row = r
		if s.Where != nil {
			v, err := eval(ctx, s.Where)
			if err != nil || !truthy(v) {
				return false
			}
		}
		// Evaluate all assignments against the pre-update row.
		vals := make([]datum.D, len(s.Sets))
		for i, a := range s.Sets {
			v, err := eval(ctx, a.Value)
			if err != nil {
				return false
			}
			vals[i] = v
		}
		for i, p := range setPos {
			r[p] = vals[i]
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return &Result{Affected: n}, nil
}

func (e *Engine) runDelete(s *sqlparser.DeleteStmt) (*Result, error) {
	t, err := e.Cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	schema := scanSchema(t, s.Table)
	ctx := &evalCtx{schema: schema, sub: e.subquery}
	n, err := t.Delete(func(r storage.Row) bool {
		if s.Where == nil {
			return true
		}
		ctx.row = r
		v, err := eval(ctx, s.Where)
		return err == nil && truthy(v)
	})
	if err != nil {
		return nil, err
	}
	return &Result{Affected: n}, nil
}

func (e *Engine) runExplain(s *sqlparser.ExplainStmt) (*Result, error) {
	plan, err := e.planSelect(s.Query)
	if err != nil {
		return nil, err
	}
	// ANALYZE executes the query with instrumentation and annotates the
	// serialized plan with the collected actuals (rows, loops, wall time).
	var st ExecStats
	if s.Analyze {
		switch s.Format {
		case sqlparser.ExplainXML, sqlparser.ExplainMySQL:
			return nil, fmt.Errorf("engine: EXPLAIN ANALYZE supports the TEXT, JSON and NATIVE formats")
		}
		if _, st, err = e.ExecPlanInstrumented(plan); err != nil {
			return nil, err
		}
	}
	var text string
	switch s.Format {
	case sqlparser.ExplainJSON:
		text, err = ExplainJSONStats(plan, st)
	case sqlparser.ExplainXML:
		text, err = ExplainXML(plan)
	case sqlparser.ExplainMySQL:
		text, err = ExplainMySQL(plan)
	case sqlparser.ExplainNative:
		text, err = ExplainNative(plan, st)
	default:
		text = explainTextStats(plan, st)
	}
	if err != nil {
		return nil, err
	}
	return &Result{Plan: text, Columns: []string{"QUERY PLAN"},
		Rows: []storage.Row{{datum.NewString(text)}}}, nil
}
