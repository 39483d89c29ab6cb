package engine

// vecagg.go is aggregation on the batch pipeline. One accumulator, aggAcc,
// serves the serial Aggregate, HashAggregate and GroupAggregate operators
// and every worker of a parallel aggregation (parallel.go), and one finish
// step turns its groups into output rows for both. The accumulator keeps
// pre-bound group keys and aggregate arguments, a group map keyed by the
// allocation-free AppendKey encoding, and its groups in first-arrival
// order, each tagged with the sequence of its first input row. A row of an
// existing group therefore allocates nothing. The parallel exchange merges
// the workers' groups into one more accumulator and orders them by that
// sequence, which is the serial first-arrival order.
//
// A DISTINCT aggregate folds each value at its first arrival, as the
// reference executor does, so serial results are bit-identical to it.

import (
	"slices"

	"lantern/internal/datum"
	"lantern/internal/storage"
)

// aggGroup is one group's key values, aggregate states and the sequence of
// its first input row.
type aggGroup struct {
	keyVals  []datum.D
	states   []aggState // value slice: one allocation per group, not per aggregate
	firstSeq int64
}

type aggAcc struct {
	aggs      []aggSpec
	groupKeys []boundExpr
	args      []boundExpr // nil entry for COUNT(*)
	having    boundExpr   // bound against the aggregate's output schema
	plain     bool        // no GROUP BY: empty input still yields one row

	idx        map[string]int32 // group key encoding → index into groups
	groups     []aggGroup
	keyBuf     []byte
	keyScratch []datum.D
	env        rowEnv
}

func (v *vbuild) newAggAcc(n *Node) (*aggAcc, error) {
	childSchema := n.Children[0].Schema
	a := &aggAcc{
		aggs:       n.Aggs,
		plain:      len(n.GroupKeys) == 0,
		args:       make([]boundExpr, len(n.Aggs)),
		keyScratch: make([]datum.D, len(n.GroupKeys)),
	}
	var err error
	if a.groupKeys, err = bindExprs(n.GroupKeys, childSchema, v.e.subquery); err != nil {
		return nil, err
	}
	for i, ag := range n.Aggs {
		if ag.Call.Star {
			continue
		}
		if a.args[i], err = bindExpr(ag.Call.Args[0], childSchema, v.e.subquery); err != nil {
			return nil, err
		}
	}
	if n.HavingFilter != nil {
		if a.having, err = bindExpr(n.HavingFilter, n.Schema, v.e.subquery); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// appendGroupKey appends the AppendKey encoding of vals, each terminated by
// a 0 byte: the map key under which aggregation groups rows and Unique
// deduplicates them.
func appendGroupKey(buf []byte, vals []datum.D) []byte {
	for _, v := range vals {
		buf = append(v.AppendKey(buf), 0)
	}
	return buf
}

func newAggStates(aggs []aggSpec) []aggState {
	states := make([]aggState, len(aggs))
	for i, ag := range aggs {
		states[i] = newAggState(ag.Call)
	}
	return states
}

// reset starts an empty run.
func (a *aggAcc) reset() {
	a.idx = make(map[string]int32)
	a.groups = nil
}

// find encodes keyVals into keyBuf and looks their group up. The lookup
// does not copy keyBuf; only insert's does.
func (a *aggAcc) find(keyVals []datum.D) (int32, bool) {
	a.keyBuf = appendGroupKey(a.keyBuf[:0], keyVals)
	gi, ok := a.idx[string(a.keyBuf)]
	return gi, ok
}

// insert adds g under the key find last encoded.
func (a *aggAcc) insert(g aggGroup) int32 {
	gi := int32(len(a.groups))
	a.groups = append(a.groups, g)
	a.idx[string(a.keyBuf)] = gi
	return gi
}

// addBatch folds a batch of input rows into their groups; seq is the
// sequence of the batch's first row, and each later row's is one more.
func (a *aggAcc) addBatch(b []storage.Row, seq int64) error {
	for i, r := range b {
		a.env.left = r
		for k, key := range a.groupKeys {
			v, err := key(&a.env)
			if err != nil {
				return err
			}
			a.keyScratch[k] = v
		}
		gi, ok := a.find(a.keyScratch)
		if !ok {
			gi = a.insert(aggGroup{
				keyVals:  slices.Clone(a.keyScratch),
				states:   newAggStates(a.aggs),
				firstSeq: seq + int64(i),
			})
		}
		states := a.groups[gi].states
		for j, ag := range a.aggs {
			if ag.Call.Star {
				states[j].count++
				continue
			}
			v, err := a.args[j](&a.env)
			if err != nil {
				return err
			}
			if err := accumulateDatum(&states[j], v); err != nil {
				return err
			}
		}
	}
	return nil
}

// merge folds groups another accumulator of the same aggregate built into
// this one. A group new here is adopted whole; an existing one merges its
// states and keeps the earlier first sequence.
func (a *aggAcc) merge(groups []aggGroup) error {
	for i := range groups {
		g := &groups[i]
		gi, ok := a.find(g.keyVals)
		if !ok {
			a.insert(*g)
			continue
		}
		dst := &a.groups[gi]
		dst.firstSeq = min(dst.firstSeq, g.firstSeq)
		for j := range dst.states {
			if err := dst.states[j].merge(&g.states[j]); err != nil {
				return err
			}
		}
	}
	return nil
}

// take hands the groups over and drops the accumulator's references to
// them, so they are garbage once their consumer is done.
func (a *aggAcc) take() []aggGroup {
	g := a.groups
	a.idx, a.groups = nil, nil
	return g
}

// finish turns the groups, in their current order, into output rows: the
// key values, then each aggregate finalized, kept when HAVING holds. A
// plain aggregate over empty input yields its one row.
func (a *aggAcc) finish() ([]storage.Row, error) {
	groups := a.take()
	if a.plain && len(groups) == 0 {
		groups = []aggGroup{{states: newAggStates(a.aggs)}}
	}
	out := make([]storage.Row, 0, len(groups))
	for gi := range groups {
		g := &groups[gi]
		row := make(storage.Row, 0, len(g.keyVals)+len(g.states))
		row = append(row, g.keyVals...)
		for i, ag := range a.aggs {
			row = append(row, finalize(&g.states[i], ag.Call))
		}
		if a.having != nil {
			a.env.left = row
			v, err := a.having(&a.env)
			if err != nil {
				return nil, err
			}
			if !truthy(v) {
				continue
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// merge folds another partial state of the same aggregate into st. A
// DISTINCT state folds in the other side's values it has not seen, in map
// order, which is safe only because aggsMergeable admits order-insensitive
// aggregates alone.
func (st *aggState) merge(o *aggState) error {
	if st.distinct != nil {
		for _, v := range o.distinct {
			if err := accumulateDatum(st, v); err != nil {
				return err
			}
		}
		return nil
	}
	st.count += o.count
	if !o.sum.IsNull() {
		if st.sum.IsNull() {
			st.sum = o.sum
		} else {
			sum, err := datum.Arith('+', st.sum, o.sum)
			if err != nil {
				return err
			}
			st.sum = sum
		}
	}
	if !o.min.IsNull() && (st.min.IsNull() || datum.Compare(o.min, st.min) < 0) {
		st.min = o.min
	}
	if !o.max.IsNull() && (st.max.IsNull() || datum.Compare(o.max, st.max) > 0) {
		st.max = o.max
	}
	return nil
}

// aggVec is the blocking aggregate: Open folds every input batch into the
// accumulator and finishes it, and NextBatch hands out the rows.
type aggVec struct {
	child vecIter
	acc   *aggAcc
	out   rowsOut
}

func (v *vbuild) newAggVec(n *Node) (*aggVec, error) {
	child, err := v.build(n.Children[0])
	if err != nil {
		return nil, err
	}
	acc, err := v.newAggAcc(n)
	if err != nil {
		return nil, err
	}
	return &aggVec{child: child, acc: acc}, nil
}

func (it *aggVec) Open() error {
	if err := it.child.Open(); err != nil {
		return err
	}
	it.acc.reset()
	var seq int64
	for {
		b, err := it.child.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if err := it.acc.addBatch(b, seq); err != nil {
			return err
		}
		seq += int64(len(b))
	}
	rows, err := it.acc.finish()
	if err != nil {
		return err
	}
	it.out.set(rows)
	return nil
}

func (it *aggVec) NextBatch() ([]storage.Row, error) { return it.out.next(), nil }

func (it *aggVec) Close() error { return it.child.Close() }
