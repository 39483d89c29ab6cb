package engine

import (
	"fmt"
	"strings"

	"lantern/internal/datum"
	"lantern/internal/sqlparser"
	"lantern/internal/storage"
)

// evalCtx carries everything expression evaluation needs: the current row,
// the schema describing it, and a subquery executor (uncorrelated subqueries
// are evaluated eagerly through the engine).
type evalCtx struct {
	schema []colRef
	row    storage.Row
	sub    func(*sqlparser.SelectStmt) ([]storage.Row, error)
}

// resolve finds the position of a column reference in the schema.
// A qualified reference must match qualifier and name; an unqualified one
// must match a unique name (ambiguity is an error). Computed columns
// (aggregates, expressions named by their formatted text) match by name.
func resolve(schema []colRef, ref *sqlparser.ColumnRef) (int, error) {
	if ref.Table != "" {
		for i, c := range schema {
			if c.Qual == ref.Table && c.Name == ref.Name {
				return i, nil
			}
		}
		// A qualified reference may also have been materialized as a
		// computed column named with its qualifier (e.g. "t.a" after an
		// aggregate). Fall through to text matching.
		text := ref.Table + "." + ref.Name
		for i, c := range schema {
			if c.Qual == "" && c.Name == text {
				return i, nil
			}
		}
		return -1, fmt.Errorf("engine: column %s.%s does not exist", ref.Table, ref.Name)
	}
	found := -1
	for i, c := range schema {
		if c.Name == ref.Name {
			if found >= 0 {
				return -1, fmt.Errorf("engine: column reference %q is ambiguous", ref.Name)
			}
			found = i
		}
	}
	if found < 0 {
		return -1, fmt.Errorf("engine: column %q does not exist", ref.Name)
	}
	return found, nil
}

// resolveComputed finds a computed column whose name equals the formatted
// expression text (how aggregate results and group keys surface to parents).
func resolveComputed(schema []colRef, e sqlparser.Expr) (int, bool) {
	text := sqlparser.FormatExpr(e)
	for i, c := range schema {
		if c.Name == text && c.Qual == "" {
			return i, true
		}
		if c.Qual != "" && c.Qual+"."+c.Name == text {
			return i, true
		}
	}
	return -1, false
}

// columnOrdinal resolves e to a schema ordinal when it is a bare column
// reference — including computed columns materialized by a child operator
// (aggregate outputs, group keys). The vectorized executor uses it to turn
// key and filter operands into direct index loads.
func columnOrdinal(e sqlparser.Expr, schema []colRef) (int, bool) {
	if ref, ok := e.(*sqlparser.ColumnRef); ok {
		if i, err := resolve(schema, ref); err == nil {
			return i, true
		}
		return 0, false
	}
	if i, ok := resolveComputed(schema, e); ok {
		return i, true
	}
	return 0, false
}

// eval evaluates an expression to a datum using SQL three-valued logic:
// boolean results may be NULL (unknown).
func eval(ctx *evalCtx, e sqlparser.Expr) (datum.D, error) {
	// Computed columns shadow structural evaluation: if the schema already
	// carries this exact expression (aggregate output, group key), read it.
	switch e.(type) {
	case *sqlparser.ColumnRef, *sqlparser.Literal:
		// fast path below
	default:
		if i, ok := resolveComputed(ctx.schema, e); ok {
			return ctx.row[i], nil
		}
	}
	switch ex := e.(type) {
	case *sqlparser.Literal:
		return ex.Value, nil
	case *sqlparser.ColumnRef:
		i, err := resolve(ctx.schema, ex)
		if err != nil {
			return datum.Null, err
		}
		return ctx.row[i], nil
	case *sqlparser.BinaryExpr:
		return evalBinary(ctx, ex)
	case *sqlparser.UnaryExpr:
		v, err := eval(ctx, ex.X)
		if err != nil {
			return datum.Null, err
		}
		if ex.Op == '!' {
			if v.IsNull() {
				return datum.Null, nil
			}
			return datum.NewBool(!v.Bool()), nil
		}
		if v.IsNull() {
			return datum.Null, nil
		}
		return datum.Arith('-', datum.NewInt(0), v)
	case *sqlparser.LikeExpr:
		s, err := eval(ctx, ex.X)
		if err != nil {
			return datum.Null, err
		}
		p, err := eval(ctx, ex.Pattern)
		if err != nil {
			return datum.Null, err
		}
		if s.IsNull() || p.IsNull() {
			return datum.Null, nil
		}
		res := datum.Like(s.Str(), p.Str())
		if ex.Not {
			res = !res
		}
		return datum.NewBool(res), nil
	case *sqlparser.BetweenExpr:
		v, err := eval(ctx, ex.X)
		if err != nil {
			return datum.Null, err
		}
		lo, err := eval(ctx, ex.Lo)
		if err != nil {
			return datum.Null, err
		}
		hi, err := eval(ctx, ex.Hi)
		if err != nil {
			return datum.Null, err
		}
		return betweenVerdict(v, lo, hi, ex.Not), nil
	case *sqlparser.InExpr:
		return evalIn(ctx, ex)
	case *sqlparser.IsNullExpr:
		v, err := eval(ctx, ex.X)
		if err != nil {
			return datum.Null, err
		}
		res := v.IsNull()
		if ex.Not {
			res = !res
		}
		return datum.NewBool(res), nil
	case *sqlparser.CaseExpr:
		for _, w := range ex.Whens {
			c, err := eval(ctx, w.Cond)
			if err != nil {
				return datum.Null, err
			}
			if truthy(c) {
				return eval(ctx, w.Result)
			}
		}
		if ex.Else != nil {
			return eval(ctx, ex.Else)
		}
		return datum.Null, nil
	case *sqlparser.FuncCall:
		return evalScalarFunc(ctx, ex)
	case *sqlparser.SubqueryExpr:
		rows, err := ctx.runSub(ex.Query)
		if err != nil {
			return datum.Null, err
		}
		if len(rows) == 0 {
			return datum.Null, nil
		}
		if len(rows) > 1 {
			return datum.Null, fmt.Errorf("engine: scalar subquery returned more than one row")
		}
		if len(rows[0]) != 1 {
			return datum.Null, fmt.Errorf("engine: scalar subquery must return one column")
		}
		return rows[0][0], nil
	case *sqlparser.ExistsExpr:
		rows, err := ctx.runSub(ex.Query)
		if err != nil {
			return datum.Null, err
		}
		res := len(rows) > 0
		if ex.Not {
			res = !res
		}
		return datum.NewBool(res), nil
	}
	return datum.Null, fmt.Errorf("engine: cannot evaluate expression %T", e)
}

func (ctx *evalCtx) runSub(q *sqlparser.SelectStmt) ([]storage.Row, error) {
	if ctx.sub == nil {
		return nil, fmt.Errorf("engine: subqueries are not available in this context")
	}
	return ctx.sub(q)
}

func evalBinary(ctx *evalCtx, ex *sqlparser.BinaryExpr) (datum.D, error) {
	switch ex.Op {
	case sqlparser.OpAnd:
		l, err := eval(ctx, ex.Left)
		if err != nil {
			return datum.Null, err
		}
		if !l.IsNull() && !l.Bool() {
			return datum.NewBool(false), nil
		}
		r, err := eval(ctx, ex.Right)
		if err != nil {
			return datum.Null, err
		}
		if !r.IsNull() && !r.Bool() {
			return datum.NewBool(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return datum.Null, nil
		}
		return datum.NewBool(true), nil
	case sqlparser.OpOr:
		l, err := eval(ctx, ex.Left)
		if err != nil {
			return datum.Null, err
		}
		if !l.IsNull() && l.Bool() {
			return datum.NewBool(true), nil
		}
		r, err := eval(ctx, ex.Right)
		if err != nil {
			return datum.Null, err
		}
		if !r.IsNull() && r.Bool() {
			return datum.NewBool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return datum.Null, nil
		}
		return datum.NewBool(false), nil
	}
	l, err := eval(ctx, ex.Left)
	if err != nil {
		return datum.Null, err
	}
	r, err := eval(ctx, ex.Right)
	if err != nil {
		return datum.Null, err
	}
	switch ex.Op {
	case sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
		if l.IsNull() || r.IsNull() {
			return datum.Null, nil
		}
		c := datum.Compare(l, r)
		var res bool
		switch ex.Op {
		case sqlparser.OpEq:
			res = c == 0
		case sqlparser.OpNe:
			res = c != 0
		case sqlparser.OpLt:
			res = c < 0
		case sqlparser.OpLe:
			res = c <= 0
		case sqlparser.OpGt:
			res = c > 0
		case sqlparser.OpGe:
			res = c >= 0
		}
		return datum.NewBool(res), nil
	case sqlparser.OpAdd:
		return datum.Arith('+', l, r)
	case sqlparser.OpSub:
		return datum.Arith('-', l, r)
	case sqlparser.OpMul:
		return datum.Arith('*', l, r)
	case sqlparser.OpDiv:
		return datum.Arith('/', l, r)
	case sqlparser.OpMod:
		return datum.Arith('%', l, r)
	case sqlparser.OpConcat:
		if l.IsNull() || r.IsNull() {
			return datum.Null, nil
		}
		return datum.NewString(l.Raw() + r.Raw()), nil
	}
	return datum.Null, fmt.Errorf("engine: unknown binary operator %d", ex.Op)
}

// betweenVerdict evaluates v BETWEEN lo AND hi as its expansion
// v >= lo AND v <= hi under three-valued logic, and NOT BETWEEN as the
// negation of that. A comparison with a NULL operand is NULL, but a false
// comparison decides the AND: 5 BETWEEN NULL AND 3 is false, not NULL.
func betweenVerdict(v, lo, hi datum.D, not bool) datum.D {
	below := !v.IsNull() && !lo.IsNull() && datum.Compare(v, lo) < 0
	above := !v.IsNull() && !hi.IsNull() && datum.Compare(v, hi) > 0
	if !below && !above && (v.IsNull() || lo.IsNull() || hi.IsNull()) {
		return datum.Null
	}
	return datum.NewBool((!below && !above) != not)
}

func evalIn(ctx *evalCtx, ex *sqlparser.InExpr) (datum.D, error) {
	v, err := eval(ctx, ex.X)
	if err != nil {
		return datum.Null, err
	}
	if v.IsNull() {
		return datum.Null, nil
	}
	sawNull := false
	var candidates []datum.D
	if ex.Subquery != nil {
		rows, err := ctx.runSub(ex.Subquery)
		if err != nil {
			return datum.Null, err
		}
		for _, r := range rows {
			if len(r) != 1 {
				return datum.Null, fmt.Errorf("engine: IN subquery must return one column")
			}
			candidates = append(candidates, r[0])
		}
	} else {
		for _, item := range ex.List {
			c, err := eval(ctx, item)
			if err != nil {
				return datum.Null, err
			}
			candidates = append(candidates, c)
		}
	}
	for _, c := range candidates {
		if c.IsNull() {
			sawNull = true
			continue
		}
		if datum.Equal(v, c) {
			return datum.NewBool(!ex.Not), nil
		}
	}
	if sawNull {
		return datum.Null, nil
	}
	return datum.NewBool(ex.Not), nil
}

// evalScalarFunc evaluates the scalar (non-aggregate) builtins. Aggregates
// reaching this point indicate a planning bug or aggregate misuse.
func evalScalarFunc(ctx *evalCtx, f *sqlparser.FuncCall) (datum.D, error) {
	if sqlparser.IsAggregateName(f.Name) {
		return datum.Null, fmt.Errorf("engine: aggregate %s used outside of aggregation context", f.Name)
	}
	args := make([]datum.D, len(f.Args))
	for i, a := range f.Args {
		v, err := eval(ctx, a)
		if err != nil {
			return datum.Null, err
		}
		args[i] = v
	}
	switch f.Name {
	case "LOWER":
		if err := wantArgs(f, args, 1); err != nil {
			return datum.Null, err
		}
		if args[0].IsNull() {
			return datum.Null, nil
		}
		return datum.NewString(strings.ToLower(args[0].Str())), nil
	case "UPPER":
		if err := wantArgs(f, args, 1); err != nil {
			return datum.Null, err
		}
		if args[0].IsNull() {
			return datum.Null, nil
		}
		return datum.NewString(strings.ToUpper(args[0].Str())), nil
	case "LENGTH":
		if err := wantArgs(f, args, 1); err != nil {
			return datum.Null, err
		}
		if args[0].IsNull() {
			return datum.Null, nil
		}
		return datum.NewInt(int64(len(args[0].Str()))), nil
	case "ABS":
		if err := wantArgs(f, args, 1); err != nil {
			return datum.Null, err
		}
		if args[0].IsNull() {
			return datum.Null, nil
		}
		if args[0].Kind() == datum.KInt {
			v := args[0].Int()
			if v < 0 {
				v = -v
			}
			return datum.NewInt(v), nil
		}
		v := args[0].Float()
		if v < 0 {
			v = -v
		}
		return datum.NewFloat(v), nil
	case "REPLACE":
		if err := wantArgs(f, args, 3); err != nil {
			return datum.Null, err
		}
		for _, a := range args {
			if a.IsNull() {
				return datum.Null, nil
			}
		}
		return datum.NewString(strings.ReplaceAll(args[0].Str(), args[1].Str(), args[2].Str())), nil
	case "SUBSTRING", "SUBSTR":
		if len(args) != 2 && len(args) != 3 {
			return datum.Null, fmt.Errorf("engine: %s expects 2 or 3 arguments", f.Name)
		}
		if args[0].IsNull() || args[1].IsNull() {
			return datum.Null, nil
		}
		s := args[0].Str()
		start := int(args[1].Int()) - 1 // SQL is 1-based
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		end := len(s)
		if len(args) == 3 {
			if args[2].IsNull() {
				return datum.Null, nil
			}
			end = start + int(args[2].Int())
			if end > len(s) {
				end = len(s)
			}
			if end < start {
				end = start
			}
		}
		return datum.NewString(s[start:end]), nil
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return datum.Null, nil
	}
	return datum.Null, fmt.Errorf("engine: unknown function %s", f.Name)
}

func wantArgs(f *sqlparser.FuncCall, args []datum.D, n int) error {
	if len(args) != n {
		return fmt.Errorf("engine: %s expects %d argument(s), got %d", f.Name, n, len(args))
	}
	return nil
}

// truthy implements WHERE-clause semantics: NULL and false both reject.
func truthy(v datum.D) bool {
	return !v.IsNull() && v.Kind() == datum.KBool && v.Bool()
}
