package engine

// bind.go compiles sqlparser expressions into bound closures for the
// batch executor (vec.go). Binding resolves every column reference to
// an ordinal once, when an operator is constructed, so per-row evaluation
// performs no schema scans, no FormatExpr-based computed-column probing,
// and no allocation beyond what the SQL semantics require (string
// concatenation, subquery execution). The tree-walking evaluator in
// expr.go remains the semantic reference used by the materializing
// executor; the differential tests assert the two agree.

import (
	"fmt"
	"strings"

	"lantern/internal/datum"
	"lantern/internal/sqlparser"
	"lantern/internal/storage"
)

// subqueryFn executes an uncorrelated subquery on behalf of an expression.
type subqueryFn func(*sqlparser.SelectStmt) ([]storage.Row, error)

// rowEnv is the runtime environment a bound expression reads from. left is
// the operator's current row. For join predicates bound with bindPairExpr,
// right holds the inner/build row, so conditions evaluate against a row
// pair without first concatenating it.
type rowEnv struct {
	left  storage.Row
	right storage.Row
}

// boundExpr is an expression compiled against a fixed schema.
type boundExpr func(env *rowEnv) (datum.D, error)

type binder struct {
	schema []colRef
	split  int // ordinals >= split read env.right[ord-split]
	sub    subqueryFn
}

// bindExpr compiles e against a single-row schema: all ordinals read
// env.left.
func bindExpr(e sqlparser.Expr, schema []colRef, sub subqueryFn) (boundExpr, error) {
	return (&binder{schema: schema, split: len(schema), sub: sub}).bind(e)
}

// bindPairExpr compiles e against the concatenation of two schemas; left
// ordinals read env.left, right ordinals read env.right. Join operators use
// this to evaluate residual and output filters on candidate pairs before
// paying for the joined row allocation.
func bindPairExpr(e sqlparser.Expr, left, right []colRef, sub subqueryFn) (boundExpr, error) {
	return (&binder{schema: concatSchema(left, right), split: len(left), sub: sub}).bind(e)
}

// bindExprs binds a list of expressions against one schema.
func bindExprs(exprs []sqlparser.Expr, schema []colRef, sub subqueryFn) ([]boundExpr, error) {
	out := make([]boundExpr, len(exprs))
	for i, e := range exprs {
		b, err := bindExpr(e, schema, sub)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// colAt returns a closure reading ordinal i from the environment.
func (b *binder) colAt(i int) boundExpr {
	if i < b.split {
		return func(env *rowEnv) (datum.D, error) { return env.left[i], nil }
	}
	j := i - b.split
	return func(env *rowEnv) (datum.D, error) { return env.right[j], nil }
}

// errExpr defers an evaluation-time error (unknown function, aggregate
// misuse, arity mismatch) to the moment the expression is actually
// evaluated, matching the lazy evaluator: a never-taken CASE branch with a
// bad function call must not fail the query.
func errExpr(err error) boundExpr {
	return func(*rowEnv) (datum.D, error) { return datum.Null, err }
}

func (b *binder) bind(e sqlparser.Expr) (boundExpr, error) {
	// Computed columns shadow structural evaluation, exactly as in eval():
	// if the schema already carries this expression (aggregate output,
	// group key), read the materialized value.
	switch e.(type) {
	case *sqlparser.ColumnRef, *sqlparser.Literal:
		// fast paths below
	default:
		if i, ok := resolveComputed(b.schema, e); ok {
			return b.colAt(i), nil
		}
	}
	switch ex := e.(type) {
	case *sqlparser.Literal:
		v := ex.Value
		return func(*rowEnv) (datum.D, error) { return v, nil }, nil
	case *sqlparser.ColumnRef:
		i, err := resolve(b.schema, ex)
		if err != nil {
			return nil, err
		}
		return b.colAt(i), nil
	case *sqlparser.BinaryExpr:
		return b.bindBinary(ex)
	case *sqlparser.UnaryExpr:
		x, err := b.bind(ex.X)
		if err != nil {
			return nil, err
		}
		if ex.Op == '!' {
			return func(env *rowEnv) (datum.D, error) {
				v, err := x(env)
				if err != nil || v.IsNull() {
					return datum.Null, err
				}
				return datum.NewBool(!v.Bool()), nil
			}, nil
		}
		zero := datum.NewInt(0)
		return func(env *rowEnv) (datum.D, error) {
			v, err := x(env)
			if err != nil || v.IsNull() {
				return datum.Null, err
			}
			return datum.Arith('-', zero, v)
		}, nil
	case *sqlparser.LikeExpr:
		x, err := b.bind(ex.X)
		if err != nil {
			return nil, err
		}
		pat, err := b.bind(ex.Pattern)
		if err != nil {
			return nil, err
		}
		not := ex.Not
		return func(env *rowEnv) (datum.D, error) {
			s, err := x(env)
			if err != nil {
				return datum.Null, err
			}
			p, err := pat(env)
			if err != nil {
				return datum.Null, err
			}
			if s.IsNull() || p.IsNull() {
				return datum.Null, nil
			}
			res := datum.Like(s.Str(), p.Str())
			if not {
				res = !res
			}
			return datum.NewBool(res), nil
		}, nil
	case *sqlparser.BetweenExpr:
		x, err := b.bind(ex.X)
		if err != nil {
			return nil, err
		}
		lo, err := b.bind(ex.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := b.bind(ex.Hi)
		if err != nil {
			return nil, err
		}
		not := ex.Not
		return func(env *rowEnv) (datum.D, error) {
			v, err := x(env)
			if err != nil {
				return datum.Null, err
			}
			lv, err := lo(env)
			if err != nil {
				return datum.Null, err
			}
			hv, err := hi(env)
			if err != nil {
				return datum.Null, err
			}
			return betweenVerdict(v, lv, hv, not), nil
		}, nil
	case *sqlparser.InExpr:
		return b.bindIn(ex)
	case *sqlparser.IsNullExpr:
		x, err := b.bind(ex.X)
		if err != nil {
			return nil, err
		}
		not := ex.Not
		return func(env *rowEnv) (datum.D, error) {
			v, err := x(env)
			if err != nil {
				return datum.Null, err
			}
			res := v.IsNull()
			if not {
				res = !res
			}
			return datum.NewBool(res), nil
		}, nil
	case *sqlparser.CaseExpr:
		type boundWhen struct{ cond, result boundExpr }
		whens := make([]boundWhen, len(ex.Whens))
		for i, w := range ex.Whens {
			c, err := b.bind(w.Cond)
			if err != nil {
				return nil, err
			}
			r, err := b.bind(w.Result)
			if err != nil {
				return nil, err
			}
			whens[i] = boundWhen{c, r}
		}
		var els boundExpr
		if ex.Else != nil {
			var err error
			els, err = b.bind(ex.Else)
			if err != nil {
				return nil, err
			}
		}
		return func(env *rowEnv) (datum.D, error) {
			for _, w := range whens {
				c, err := w.cond(env)
				if err != nil {
					return datum.Null, err
				}
				if truthy(c) {
					return w.result(env)
				}
			}
			if els != nil {
				return els(env)
			}
			return datum.Null, nil
		}, nil
	case *sqlparser.FuncCall:
		return b.bindFunc(ex)
	case *sqlparser.SubqueryExpr:
		run := b.lazySubquery(ex.Query)
		return func(*rowEnv) (datum.D, error) {
			rows, err := run()
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
		}, nil
	case *sqlparser.ExistsExpr:
		run := b.lazySubquery(ex.Query)
		not := ex.Not
		return func(*rowEnv) (datum.D, error) {
			rows, err := run()
			if err != nil {
				return datum.Null, err
			}
			res := len(rows) > 0
			if not {
				res = !res
			}
			return datum.NewBool(res), nil
		}, nil
	}
	return nil, fmt.Errorf("engine: cannot evaluate expression %T", e)
}

// checkBind reports the error bindExpr would return binding e against
// schema, without compiling e: the planner calls it so that EXPLAIN
// rejects the column references execution rejects. It descends where bind
// does. bind first reads an expression the schema carries as a computed
// column, without descending; that matters only when the descent fails,
// so only then does checkBind look for one, and an expression that binds
// costs no formatting.
func checkBind(e sqlparser.Expr, schema []colRef) error {
	var err error
	switch ex := e.(type) {
	case nil, *sqlparser.Literal:
		return nil
	case *sqlparser.ColumnRef:
		_, err := resolve(schema, ex)
		return err
	case *sqlparser.BinaryExpr:
		err = checkBinds(schema, ex.Left, ex.Right)
	case *sqlparser.UnaryExpr:
		err = checkBind(ex.X, schema)
	case *sqlparser.LikeExpr:
		err = checkBinds(schema, ex.X, ex.Pattern)
	case *sqlparser.BetweenExpr:
		err = checkBinds(schema, ex.X, ex.Lo, ex.Hi)
	case *sqlparser.InExpr:
		if err = checkBind(ex.X, schema); err == nil && ex.Subquery == nil {
			err = checkBinds(schema, ex.List...)
		}
	case *sqlparser.IsNullExpr:
		err = checkBind(ex.X, schema)
	case *sqlparser.CaseExpr:
		for _, w := range ex.Whens {
			if err = checkBinds(schema, w.Cond, w.Result); err != nil {
				break
			}
		}
		if err == nil {
			err = checkBind(ex.Else, schema)
		}
	case *sqlparser.FuncCall:
		// bind defers an aggregate's misuse to evaluation.
		if !sqlparser.IsAggregateName(ex.Name) {
			err = checkBinds(schema, ex.Args...)
		}
	case *sqlparser.SubqueryExpr, *sqlparser.ExistsExpr:
	default:
		err = fmt.Errorf("engine: cannot evaluate expression %T", e)
	}
	if err != nil {
		if _, ok := resolveComputed(schema, e); ok {
			return nil
		}
	}
	return err
}

func checkBinds(schema []colRef, es ...sqlparser.Expr) error {
	for _, e := range es {
		if err := checkBind(e, schema); err != nil {
			return err
		}
	}
	return nil
}

// lazySubquery returns a runner that executes an uncorrelated subquery on
// first use and caches the result: within one statement the catalog is
// stable, so one evaluation per operator instance suffices (the reference
// evaluator re-runs it per row).
func (b *binder) lazySubquery(q *sqlparser.SelectStmt) func() ([]storage.Row, error) {
	sub := b.sub
	var rows []storage.Row
	var done bool
	return func() ([]storage.Row, error) {
		if done {
			return rows, nil
		}
		if sub == nil {
			return nil, fmt.Errorf("engine: subqueries are not available in this context")
		}
		r, err := sub(q)
		if err != nil {
			return nil, err
		}
		rows, done = r, true
		return rows, nil
	}
}

func (b *binder) bindBinary(ex *sqlparser.BinaryExpr) (boundExpr, error) {
	l, err := b.bind(ex.Left)
	if err != nil {
		return nil, err
	}
	r, err := b.bind(ex.Right)
	if err != nil {
		return nil, err
	}
	switch ex.Op {
	case sqlparser.OpAnd:
		return func(env *rowEnv) (datum.D, error) {
			lv, err := l(env)
			if err != nil {
				return datum.Null, err
			}
			if !lv.IsNull() && !lv.Bool() {
				return datum.NewBool(false), nil
			}
			rv, err := r(env)
			if err != nil {
				return datum.Null, err
			}
			if !rv.IsNull() && !rv.Bool() {
				return datum.NewBool(false), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return datum.Null, nil
			}
			return datum.NewBool(true), nil
		}, nil
	case sqlparser.OpOr:
		return func(env *rowEnv) (datum.D, error) {
			lv, err := l(env)
			if err != nil {
				return datum.Null, err
			}
			if !lv.IsNull() && lv.Bool() {
				return datum.NewBool(true), nil
			}
			rv, err := r(env)
			if err != nil {
				return datum.Null, err
			}
			if !rv.IsNull() && rv.Bool() {
				return datum.NewBool(true), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return datum.Null, nil
			}
			return datum.NewBool(false), nil
		}, nil
	case sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
		op := ex.Op
		return func(env *rowEnv) (datum.D, error) {
			lv, err := l(env)
			if err != nil {
				return datum.Null, err
			}
			rv, err := r(env)
			if err != nil {
				return datum.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return datum.Null, nil
			}
			c := datum.Compare(lv, rv)
			var res bool
			switch op {
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
		}, nil
	case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv, sqlparser.OpMod:
		var sym byte
		switch ex.Op {
		case sqlparser.OpAdd:
			sym = '+'
		case sqlparser.OpSub:
			sym = '-'
		case sqlparser.OpMul:
			sym = '*'
		case sqlparser.OpDiv:
			sym = '/'
		case sqlparser.OpMod:
			sym = '%'
		}
		return func(env *rowEnv) (datum.D, error) {
			lv, err := l(env)
			if err != nil {
				return datum.Null, err
			}
			rv, err := r(env)
			if err != nil {
				return datum.Null, err
			}
			return datum.Arith(sym, lv, rv)
		}, nil
	case sqlparser.OpConcat:
		return func(env *rowEnv) (datum.D, error) {
			lv, err := l(env)
			if err != nil {
				return datum.Null, err
			}
			rv, err := r(env)
			if err != nil {
				return datum.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return datum.Null, nil
			}
			return datum.NewString(lv.Raw() + rv.Raw()), nil
		}, nil
	}
	return nil, fmt.Errorf("engine: unknown binary operator %d", ex.Op)
}

func (b *binder) bindIn(ex *sqlparser.InExpr) (boundExpr, error) {
	x, err := b.bind(ex.X)
	if err != nil {
		return nil, err
	}
	not := ex.Not
	if ex.Subquery != nil {
		run := b.lazySubquery(ex.Subquery)
		var set *inSet
		return func(env *rowEnv) (datum.D, error) {
			v, err := x(env)
			if err != nil {
				return datum.Null, err
			}
			if v.IsNull() {
				return datum.Null, nil
			}
			if set == nil {
				rows, err := run()
				if err != nil {
					return datum.Null, err
				}
				if set, err = newInSet(rows); err != nil {
					return datum.Null, err
				}
			}
			if set.contains(v) {
				return datum.NewBool(!not), nil
			}
			if set.sawNull {
				return datum.Null, nil
			}
			return datum.NewBool(not), nil
		}, nil
	}
	items := make([]boundExpr, len(ex.List))
	for i, item := range ex.List {
		bi, err := b.bind(item)
		if err != nil {
			return nil, err
		}
		items[i] = bi
	}
	return func(env *rowEnv) (datum.D, error) {
		v, err := x(env)
		if err != nil {
			return datum.Null, err
		}
		if v.IsNull() {
			return datum.Null, nil
		}
		sawNull := false
		for _, item := range items {
			c, err := item(env)
			if err != nil {
				return datum.Null, err
			}
			if c.IsNull() {
				sawNull = true
				continue
			}
			if datum.Equal(v, c) {
				return datum.NewBool(!not), nil
			}
		}
		if sawNull {
			return datum.Null, nil
		}
		return datum.NewBool(not), nil
	}, nil
}

// inSet is what `x IN (subquery)` probes: the subquery's distinct
// non-NULL values, as keys of one datum in a keyTable, which finds 1.0
// for 1 as datum.Equal compares them, and whether the subquery returned a
// NULL. Built once per bound expression, it turns each probe's scan of
// the subquery result into one lookup.
type inSet struct {
	vals    keyTable
	sawNull bool
}

func newInSet(rows []storage.Row) (*inSet, error) {
	s := new(inSet)
	s.vals.reset(1, 0)
	for _, r := range rows {
		if len(r) != 1 {
			return nil, fmt.Errorf("engine: IN subquery must return one column")
		}
		if r[0].IsNull() {
			s.sawNull = true
			continue
		}
		s.vals.insert(r, hashKey(r))
	}
	return s, nil
}

// contains reports whether the set holds v, which is not NULL.
func (s *inSet) contains(v datum.D) bool {
	key := [1]datum.D{v}
	return s.vals.find(key[:], hashKey(key[:])) >= 0
}

// bindFunc compiles the scalar builtins. Unknown functions, aggregate
// misuse and arity mismatches become evaluation-time errors (not bind-time)
// to preserve the lazy evaluator's behavior for never-evaluated branches.
func (b *binder) bindFunc(f *sqlparser.FuncCall) (boundExpr, error) {
	if sqlparser.IsAggregateName(f.Name) {
		return errExpr(fmt.Errorf("engine: aggregate %s used outside of aggregation context", f.Name)), nil
	}
	args := make([]boundExpr, len(f.Args))
	for i, a := range f.Args {
		ba, err := b.bind(a)
		if err != nil {
			return nil, err
		}
		args[i] = ba
	}
	arity := func(n int) boundExpr {
		return errExpr(fmt.Errorf("engine: %s expects %d argument(s), got %d", f.Name, n, len(args)))
	}
	// eval1 wraps the single-argument NULL-propagating builtins.
	eval1 := func(fn func(datum.D) datum.D) boundExpr {
		arg := args[0]
		return func(env *rowEnv) (datum.D, error) {
			v, err := arg(env)
			if err != nil || v.IsNull() {
				return datum.Null, err
			}
			return fn(v), nil
		}
	}
	switch f.Name {
	case "LOWER":
		if len(args) != 1 {
			return arity(1), nil
		}
		return eval1(func(v datum.D) datum.D { return datum.NewString(strings.ToLower(v.Str())) }), nil
	case "UPPER":
		if len(args) != 1 {
			return arity(1), nil
		}
		return eval1(func(v datum.D) datum.D { return datum.NewString(strings.ToUpper(v.Str())) }), nil
	case "LENGTH":
		if len(args) != 1 {
			return arity(1), nil
		}
		return eval1(func(v datum.D) datum.D { return datum.NewInt(int64(len(v.Str()))) }), nil
	case "ABS":
		if len(args) != 1 {
			return arity(1), nil
		}
		return eval1(func(v datum.D) datum.D {
			if v.Kind() == datum.KInt {
				i := v.Int()
				if i < 0 {
					i = -i
				}
				return datum.NewInt(i)
			}
			fv := v.Float()
			if fv < 0 {
				fv = -fv
			}
			return datum.NewFloat(fv)
		}), nil
	case "REPLACE":
		if len(args) != 3 {
			return arity(3), nil
		}
		s, old, new_ := args[0], args[1], args[2]
		return func(env *rowEnv) (datum.D, error) {
			sv, err := s(env)
			if err != nil {
				return datum.Null, err
			}
			ov, err := old(env)
			if err != nil {
				return datum.Null, err
			}
			nv, err := new_(env)
			if err != nil {
				return datum.Null, err
			}
			if sv.IsNull() || ov.IsNull() || nv.IsNull() {
				return datum.Null, nil
			}
			return datum.NewString(strings.ReplaceAll(sv.Str(), ov.Str(), nv.Str())), nil
		}, nil
	case "SUBSTRING", "SUBSTR":
		if len(args) != 2 && len(args) != 3 {
			return errExpr(fmt.Errorf("engine: %s expects 2 or 3 arguments", f.Name)), nil
		}
		str, from := args[0], args[1]
		var count boundExpr
		if len(args) == 3 {
			count = args[2]
		}
		return func(env *rowEnv) (datum.D, error) {
			sv, err := str(env)
			if err != nil {
				return datum.Null, err
			}
			fv, err := from(env)
			if err != nil {
				return datum.Null, err
			}
			if sv.IsNull() || fv.IsNull() {
				return datum.Null, nil
			}
			s := sv.Str()
			start := int(fv.Int()) - 1 // SQL is 1-based
			if start < 0 {
				start = 0
			}
			if start > len(s) {
				start = len(s)
			}
			end := len(s)
			if count != nil {
				cv, err := count(env)
				if err != nil {
					return datum.Null, err
				}
				if cv.IsNull() {
					return datum.Null, nil
				}
				end = start + int(cv.Int())
				if end > len(s) {
					end = len(s)
				}
				if end < start {
					end = start
				}
			}
			return datum.NewString(s[start:end]), nil
		}, nil
	case "COALESCE":
		return func(env *rowEnv) (datum.D, error) {
			for _, a := range args {
				v, err := a(env)
				if err != nil {
					return datum.Null, err
				}
				if !v.IsNull() {
					return v, nil
				}
			}
			return datum.Null, nil
		}, nil
	}
	return errExpr(fmt.Errorf("engine: unknown function %s", f.Name)), nil
}
