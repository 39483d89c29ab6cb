package engine

// bridge.go is the native engine↔plan bridge: it converts the engine's
// physical plan directly into the vendor-neutral plan.Node tree the
// narrator consumes (no EXPLAIN-text round-trip), and provides the opt-in
// iterator instrumentation that annotates that tree with per-operator
// runtime statistics — PostgreSQL's EXPLAIN ANALYZE semantics.
//
// The instrumentation contract:
//
//   - Collection is opt-in per execution. Engine.Exec opens its cursor
//     (stream.go) with no stats, so the pipeline is built with no stats
//     hook and a disabled run pays zero extra allocations and zero extra
//     branches — the pipeline is the identical object graph the
//     allocation guards in alloc_test.go measure.
//   - When enabled (ExecPlanInstrumented, QueryInstrumented,
//     QueryStreamInstrumented, EXPLAIN ANALYZE), the cursor gets stats
//     and the same batch pipeline runs, serial or parallel, with every
//     operator wrapped in an instrVecIter (parallel.go) that counts rows
//     and inclusive wall time per batch — inclusive meaning a parent's
//     time contains its children's, exactly as PostgreSQL reports actual
//     time. Its counters are atomic: in a parallel region the workers'
//     clones of one operator share a single OpStats, so Rows and Time are
//     exact totals across workers (time sums busy time, like CPU time),
//     and the driver scan's stats additionally carry the worker count and
//     per-worker rows/time breakdown (OpStats.Workers / PerWorker).
//   - Loops are reported as 1. No serial operator is re-opened (a Nested
//     Loop runs as the keyless hash join and materializes its inner side
//     once), and per-morsel pipeline restarts in a parallel region are
//     scheduling, not EXPLAIN loops.
//   - Actual rows count whole batches. Under a streaming LIMIT an operator
//     reports the rows of the batches it produced: a scan's adaptive first
//     chunk is 64 rows, so `LIMIT 10` over a scan shows the scan at 64.
//     A Sort under a LIMIT keeps a top-K heap and reports the limit.
//   - Pass-through operators (Hash, Materialize) get their own wrapper,
//     so a Hash node reports the build-side row count.
//   - Whenever a plan was considered for parallelism, the driver's actual
//     row count is fed back through the DOP policy: if the actuals would
//     have earned more workers than the estimate did, WantedWorkers
//     records the missed DOP and the bridged tree carries
//     plan.AttrWorkersWanted — the narrator's "a mis-estimate kept this
//     scan under-parallelized" signal.
//   - Wall time is the only non-deterministic statistic; the plan layer
//     excludes AttrTimeMs from the canonical serialization so
//     actuals-annotated plans remain cacheable by fingerprint.

import (
	"strconv"
	"time"

	"lantern/internal/plan"
	"lantern/internal/sqlparser"
	"lantern/internal/storage"
)

// OpStats is the runtime statistics of one plan operator.
type OpStats struct {
	// Rows is the total number of rows the operator produced across all
	// loops (summed across workers in a parallel region).
	Rows int64
	// Time is the inclusive wall time spent in the operator's Open and
	// NextBatch calls, children included. In a parallel region it sums
	// the workers' busy time, like CPU time.
	Time time.Duration
	// Workers is the degree of parallelism the operator actually ran with;
	// 0 or 1 means serial. Set only on the driver scan of a parallel plan
	// (or a plan that was considered and kept serial).
	Workers int64
	// WantedWorkers is the DOP the policy would have chosen from the
	// actual row count, recorded only when it exceeds Workers — i.e. when
	// a cardinality under-estimate cost parallelism.
	WantedWorkers int64
	// PerWorker is the per-worker rows/busy-time breakdown of a parallel
	// driver scan, indexed by worker id.
	PerWorker []WorkerStat
	// SegsScanned and SegsPruned count the sealed column segments a
	// sequential scan examined versus skipped outright via zone maps
	// (totals across loops and workers). Both stay 0 for tables whose rows
	// all live in the unsealed tail, and for non-scan operators.
	SegsScanned int64
	SegsPruned  int64
}

// WorkerStat is one worker's share of a parallel operator's work.
type WorkerStat struct {
	Rows int64
	Time time.Duration
}

// ExecStats maps each plan node to its collected runtime statistics. A nil
// map means "no instrumentation".
type ExecStats map[*Node]*OpStats

// ExecPlanInstrumented runs a physical plan with per-operator
// instrumentation enabled, returning the plan's own output rows and the
// collected statistics (see the header).
func (e *Engine) ExecPlanInstrumented(n *Node) ([]storage.Row, ExecStats, error) {
	st := make(ExecStats)
	var c Cursor
	if err := c.open(e, n, nil, st); err != nil {
		return nil, nil, err
	}
	rows, err := c.drain()
	if err != nil {
		return nil, nil, err
	}
	return rows, st, nil
}

// get returns (allocating if needed) the stats slot for a node.
func (st ExecStats) get(n *Node) *OpStats {
	os := st[n]
	if os == nil {
		os = &OpStats{}
		st[n] = os
	}
	return os
}

// annotateWorkerStats completes run statistics after execution: when the
// plan was considered for parallelism (driver DOP >= 1), the driver's
// actual row count is fed back through the DOP policy to expose what a
// correct estimate would have chosen (narrated via AttrWorkersWanted when
// larger). An uninstrumented run (nil st) has nothing to complete.
func (e *Engine) annotateWorkerStats(n *Node, st ExecStats) {
	if st == nil {
		return
	}
	var driver *Node
	n.Walk(func(x *Node) {
		if driver == nil && x.DOP >= 1 {
			driver = x
		}
	})
	if driver == nil {
		return
	}
	os := st[driver]
	if os == nil {
		return
	}
	if os.Workers == 0 {
		os.Workers = int64(driver.DOP)
	}
	if wanted := int64(e.dopForRows(float64(os.Rows))); wanted > os.Workers {
		os.WantedWorkers = wanted
	}
}

// QueryResult bundles an executed, projected SELECT with the physical plan
// that produced it and the plan's runtime statistics, as QueryInstrumented
// returns them to the corpus generator, tests and benchmarks.
type QueryResult struct {
	Result  *Result
	Plan    *Node
	Stats   ExecStats
	Elapsed time.Duration
}

// QueryInstrumented parses, plans, and executes a SELECT with runtime
// instrumentation: QueryStreamInstrumented's cursor, drained.
func (e *Engine) QueryInstrumented(sql string) (*QueryResult, error) {
	c, err := e.QueryStreamInstrumented(sql)
	if err != nil {
		return nil, err
	}
	rows, err := c.drain()
	if err != nil {
		return nil, err
	}
	return &QueryResult{Result: &Result{Columns: c.Columns, Rows: rows}, Plan: c.plan, Stats: c.stats, Elapsed: c.Elapsed()}, nil
}

// ToPlanNode converts a physical plan directly into the vendor-neutral
// operator tree (Source "native"). Narration reads this tree, and every
// EXPLAIN format but text is written from it by a plan-package formatter
// (explainAs), so the attributes below are the one place that decides
// what a plan reports: conditions in PostgreSQL's parenthesized form,
// keys joined with ", ", costs rounded to two decimals.
func ToPlanNode(n *Node) *plan.Node { return ToPlanNodeStats(n, nil) }

// ToPlanNodeStats is ToPlanNode plus actual-stats annotation: when st has
// an entry for a node, the standardized AttrActualRows / AttrLoops /
// AttrTimeMs attributes are attached. st may be nil.
func ToPlanNodeStats(n *Node, st ExecStats) *plan.Node {
	if n == nil {
		return nil
	}
	p := &plan.Node{
		Name:   n.Op.Name(),
		Source: "native",
		Rows:   n.EstRows,
		Cost:   round2(n.EstCost),
	}
	switch n.Op {
	case OpSeqScan:
		p.SetAttr(plan.AttrRelation, n.Relation)
		p.SetAttr(plan.AttrAlias, aliasOr(n))
		p.SetAttr(plan.AttrFilter, condText(n.Filter))
	case OpIndexScan:
		p.SetAttr(plan.AttrRelation, n.Relation)
		p.SetAttr(plan.AttrAlias, aliasOr(n))
		p.SetAttr(plan.AttrIndexName, n.IndexName)
		p.SetAttr(plan.AttrIndexCond, condText(n.IndexCond))
		p.SetAttr(plan.AttrFilter, condText(n.Filter))
	case OpHashJoin, OpMergeJoin, OpNestedLoop:
		p.SetAttr(plan.AttrJoinCond, condText(n.JoinCond))
		p.SetAttr(plan.AttrFilter, condText(n.Filter))
		if n.JoinType == sqlparser.LeftJoin {
			p.SetAttr(plan.AttrJoinType, "Left")
		}
	case OpSort, OpUnique:
		p.SetAttr(plan.AttrSortKey, sortKeyText(n.SortKeys))
	case OpAggregate, OpHashAggregate, OpGroupAggregate:
		p.SetAttr(plan.AttrGroupKey, groupKeyText(n.GroupKeys))
		p.SetAttr(plan.AttrFilter, condText(n.HavingFilter))
		switch n.Op {
		case OpAggregate:
			p.SetAttr(plan.AttrStrategy, "Plain")
		case OpHashAggregate:
			p.SetAttr(plan.AttrStrategy, "Hashed")
		case OpGroupAggregate:
			p.SetAttr(plan.AttrStrategy, "Sorted")
		}
	case OpResult:
		p.SetAttr(plan.AttrFilter, condText(n.Filter))
	}
	if os := st[n]; os != nil {
		p.SetAttr(plan.AttrActualRows, strconv.FormatInt(os.Rows, 10))
		p.SetAttr(plan.AttrLoops, "1")
		p.SetAttr(plan.AttrTimeMs, strconv.FormatFloat(float64(os.Time)/float64(time.Millisecond), 'f', 3, 64))
		// Worker attributes only appear when they say something: a serial
		// run (Workers <= 1) with no missed parallelism stays byte-identical
		// to pre-parallelism plans, keeping goldens and fingerprints stable.
		if os.Workers >= 2 {
			p.SetAttr(plan.AttrWorkers, strconv.FormatInt(os.Workers, 10))
		}
		if os.WantedWorkers > os.Workers && os.WantedWorkers >= 2 {
			p.SetAttr(plan.AttrWorkersWanted, strconv.FormatInt(os.WantedWorkers, 10))
		}
		// Segment attributes only appear once a scan has seen a sealed
		// segment: tables living entirely in the row-major tail keep
		// pre-segment plan texts.
		if os.SegsScanned+os.SegsPruned > 0 {
			p.SetAttr(plan.AttrSegments, strconv.FormatInt(os.SegsScanned+os.SegsPruned, 10))
			p.SetAttr(plan.AttrSegmentsPruned, strconv.FormatInt(os.SegsPruned, 10))
		}
	}
	for _, c := range n.Children {
		p.Children = append(p.Children, ToPlanNodeStats(c, st))
	}
	return p
}

func aliasOr(n *Node) string {
	if n.Alias != "" {
		return n.Alias
	}
	return n.Relation
}

func round2(f float64) float64 {
	return float64(int64(f*100+0.5)) / 100
}
