// Package engine implements the substrate RDBMS that stands in for
// PostgreSQL / SQL Server / MySQL in this reproduction: a cost-based
// planner over the catalog's statistics, a full in-memory executor, and
// EXPLAIN in five formats. The engine writes only PostgreSQL-style text
// itself. JSON (PostgreSQL), XML (SQL Server showplan), MYSQL (MySQL's
// EXPLAIN FORMAT=JSON) and NATIVE are written by internal/plan's
// formatters from the bridged plan tree, beside the parsers LANTERN
// consumes them with, exactly as the paper's system consumes the output
// of the commercial engines.
//
// # Join ordering
//
// Queries without outer joins are ordered cost-based. A WHERE or
// inner-join ON conjunct on one table filters that table's scan, a column
// equality between two tables is an equi-join predicate, and any other
// conjunct filters the join root. Up to Config.DPThreshold relations,
// dynamic programming (planner.go dpJoin) finds the cheapest tree
// exhaustively. A dense table indexed by subset mask holds, for every
// subset of the relations, its cheapest plan's estimated rows, cost and
// output ordering, the split that joins it and the join operator. Masks
// are visited in numeric order, which costs both halves of every split
// first, since every proper subset of a mask is numerically smaller.
//
// A subset tries every split into two halves that an equi-join predicate
// crosses, and only when none does, every split as a Cartesian product.
// Each candidate is costed arithmetically (cheapestJoin) from its halves'
// table entries and the query's edge list, which holds every equi-join
// predicate's two relations as mask bits and its containment divisor,
// the larger of its columns' distinct counts, computed once. Costing a
// candidate therefore allocates nothing: no Node, map, schema or
// expression. Nodes are built once, top-down, for the winning tree
// (joinNode), carrying the estimates the search compared. Ties keep the
// earlier split, in descending order of the half without the subset's
// highest relation, and hash join before merge join before nested loop.
// Each equi-join predicate crosses exactly one join of the tree, whose
// condition applies it.
//
// The search space keeps Cartesian sub-products under connected joins.
// A subset no predicate connects is planned as a product, and larger
// subsets join it on the keys of both its halves. With statistics that is
// sometimes cheapest: TPC-H Q2 at small scales joins part × region, both
// filtered to a row or two, before either meets its keys. Enumerating
// only connected pairs (DPccp, Moerkotte and Neumann, VLDB 2006) would
// drop such plans and change what LANTERN narrates for those queries.
//
// Beyond DPThreshold relations greedy ordering joins the cheapest pair of
// pieces, preferring pairs a predicate connects, until one is left. It
// costs pairs with the same function, builds only the pair it joins, and
// tracks each relation's piece in a slice, so any number of relations
// fits.
//
// # Outer-join planning
//
// A LEFT JOIN does not commute, so a query with one keeps its FROM clause
// in written order and applies WHERE above the joins. Each LEFT JOIN's ON
// clause splits three ways:
//
//   - Column equalities whose two columns come from opposite inputs are
//     the hash keys.
//   - Conjuncts that reference only the nullable (right) table become its
//     scan filter, estimated and costed like any scan filter (selectivity,
//     zone-map pruning). A row they reject could never match, and the
//     preserved row survives null-extended either way.
//   - Everything else stays in the join condition. That includes
//     conjuncts on the preserved (left) side alone: they decide whether a
//     row pair matches, not whether the left row is kept, so filtering the
//     left input with them would drop rows the LEFT JOIN must keep.
//
// With a key and hash joins enabled the join is a Hash Left Join that
// builds on the nullable side; its residual, the condition's non-key
// conjuncts, decides a match together with the keys. Without a key it is
// a Nested Loop Left Join with the condition as its join filter. A TPC-H
// Q13 variant, `customer LEFT JOIN orders ON c_custkey = o_custkey AND
// o_totalprice > N`, therefore hashes the filtered orders once instead of
// testing every customer–order pair. Every executor splits a hash or
// merge join's condition the same way (joinKeyPairs): an equality is a
// key only when one column comes from each input, and any other conjunct
// is residual.
//
// An inner JOIN ... ON in the same query splits likewise: its
// cross-input column equalities are the keys the join algorithm is
// chosen over, and every other conjunct becomes the join's filter, with
// its selectivity applied to the row estimate. Without a key the join is
// a filtered cross join (nested loop).
//
// # Join output columns
//
// Once the plan's bindings are checked, one top-down pass
// (planner.go narrowJoins) narrows each join's Schema to the columns its
// consumers read, in their order. The consumers are the select list, where
// * reads every column and t.* every column of t; ORDER BY and DISTINCT
// keys; GROUP BY keys and aggregate arguments; and the keys, residuals and
// filters of the joins above. A join's own condition and filter bind
// against its inputs' schemas side by side in every executor, so they read
// its inputs, not its output: a join key nothing above reads is dropped
// after its join. Hash, Sort, Limit and Unique take their input's narrowed
// Schema. Scans keep their full width, so an unfiltered chunk still
// aliases segment rows with no copy.
//
// A batch join resolves, when it is built, where each output column sits
// in its left input's Schema and in its right input's, and packs an output
// row by gathering those ordinals of the matched pair; a side whose every
// column is read is one block copy. The reference executor joins whole row
// pairs as before and gathers them into the Schema at the end. A query
// that reads 2 of a join's 13 columns therefore packs 2 datums a row, and
// COUNT(*) over a join packs none. This is late materialization (Abadi et
// al., "Materialization Strategies in a Column-Oriented DBMS", ICDE 2007)
// applied to row batches. No emitter prints a Schema, so plans, EXPLAIN,
// narrations and fingerprints are unchanged.
//
// # Execution model
//
// Every SELECT executes batch-at-a-time (vec.go, vecjoin.go, vecsort.go,
// vecagg.go): Exec, subqueries, the streaming query API and every
// instrumented run build the same pipeline and drain it through one
// Cursor (stream.go), Volcano's open-next-close iterator pulled a batch
// at a time: it projects each batch when given a projector, instruments
// the operators when given stats, and hands the batches out, so the
// callers that materialize a result (Exec, subqueries, QueryInstrumented,
// ExecPlanInstrumented, EXPLAIN ANALYZE) and the serving layer, which
// pulls the open cursor itself, share one loop with no per-row call. Every
// operator the planner emits implements one contract:
//
//	type vecIter interface {
//		Open() error
//		NextBatch() ([]storage.Row, error)
//		Close() error
//	}
//
// NextBatch returns up to batchSize (1024) rows per call, never an empty
// batch; nil signals end of stream. Scans slice storage-owned row memory
// directly (an unfiltered chunk is a zero-copy subslice) and run compiled
// predicates over whole chunks in tight typed loops. The joins pack the
// columns of their Schema into flat datum arena chunks (typically one or
// two per output batch instead of one allocation per row, never regrown
// or copied) and resume mid-match or mid-group when a batch fills. A
// Nested Loop is the keyless hash join: its whole condition is the
// residual and every inner row has the one empty key, so each outer row
// is checked against the inner rows in order and the inner side is
// materialized once. Sort keeps the bounded top-K heap or stably sorts an
// index permutation over a flat key arena. Unique filters each input batch
// and passes on the rows it keeps.
// Aggregation folds batches into one accumulator (aggAcc) shared with the
// parallel workers. The allocation guards in alloc_test.go pin the
// steady-state batch loops at (near) zero allocations per batch.
//
// # Hashing and the key equality
//
// Every operator that hashes keeps its keys in one keyTable
// (keytable.go): the hash join's build, which the parallel exchange's
// workers probe read-only; GROUP BY, serial, per worker and in the
// exchange's merge; Unique; IN (subquery) sets; and the values of a
// DISTINCT aggregate, in both executors. The join groups its build rows
// by key id in build order, so a probe row's matches are one run, in
// nested-loop order. Keys are equal when datum.Compare finds every
// component equal, and
// their hash, datum.Hash combined per component, agrees: 1 equals 1.0,
// -0.0 equals 0.0, and NULL equals NULL, which joins and IN sets keep out
// of their tables. Over 0.0, -0.0, 1e6 and the integer 1000000, GROUP BY,
// DISTINCT and COUNT(DISTINCT) therefore see two values, as PostgreSQL
// does, and a group shows its first row's key. The reference executor
// keeps Go maps, keyed by the same hash and checked with datum.Compare.
//
// Aggregate arguments fold through typed kernels (vecagg.go). An argument
// that is a column, a numeric literal, or +, - and * over those compiles
// to an evaluator that yields a kind and an int64 or a float64 per row,
// and each aggregate keeps a typed running sum with datum.Arith's result
// kinds (an integer sum stays an integer and wraps; a float widens it), so
// SUM and AVG stay bit-identical to the reference executor. Each scan
// records its batch origin: the loaded segment payload the batch came from
// and the index in it of each row (nil for tail rows). An aggregate
// directly above a scan (serial, or a parallel worker above its morsel
// scan) reads its column leaves from the segment's INT and FLOAT vectors,
// and its bare-column group keys from their typed vectors, at that origin;
// above any other operator, and for tail rows, it reads the row datums. A NULL operand skips the row, and an operand of any
// other kind sends the row through the argument's bound closure, so errors
// stay exactly the closure's. Division, unary minus, CASE, functions and
// DISTINCT arguments always take the closure. Group keys that are all bare
// columns load by ordinal, and a plain aggregate finds its one group
// without a key after the first row. Rows fold one at a time in arrival
// order: no float sum is reassociated.
//
// The first batches of a serial scan are deliberately small: NextBatch
// starts at initialChunkSize (64) rows and grows the chunk ×4 per call up
// to batchSize, so a LIMIT-k short circuit touches tens of heap rows, not
// a full batch, while long scans reach full batch width within three
// calls. A parallel worker's scan reads its morsel in full-width chunks.
//
// The engine thus has one production executor, this one, beside the
// reference executor (the differential oracle); the morsel-parallel
// exchange runs the same batch operators on worker clones (see
// Morsel-driven parallelism).
//
// # Columnar scans and zone-map pruning
//
// The storage layer (internal/storage) keeps each table as immutable
// column-major sealed segments plus a row-major mutable tail, and every
// scan — vectorized, parallel, reference — operates a Snapshot taken at
// Open. The scan contract against that layout:
//
//   - A Snapshot is a stable point-in-time view: concurrent INSERTs,
//     UPDATEs, DELETEs, and CreateIndex calls never change what an open
//     scan observes, and no external synchronization between readers and
//     writers is required. Rescans (re-Open) take a fresh snapshot.
//   - Sealed segments are scanned segment-at-a-time. Before any row is
//     touched, the compiled predicate (a zonePruner, vexpr.go) is checked
//     against the segment's per-column zone maps; a refuted segment is
//     skipped wholesale — zero rows read, zero allocations — and counted
//     in OpStats.SegsPruned. Surviving segments filter each chunk through
//     a selection vector: the chunk's row indices, which every conjunct
//     narrows in place with its typed loop over the column vectors
//     (Int64/Float64/String storage and the null bitmap). Only the final
//     survivors are late-materialized, as aliases into the segment's
//     retained row-major form — so downstream operators see ordinary rows
//     and the mutation/retention rules below are unchanged — and the
//     scan records the segment and indices as the batch's origin.
//   - The predicate shapes with zone checks and typed loops are a column
//     compared with a literal, IS [NOT] NULL, x BETWEEN lit AND lit,
//     x IN (lit, ...), and conjunctions of these (a column compared with
//     another column has a typed loop but no zone check). BETWEEN compiles
//     to the two comparisons it abbreviates, x >= lo AND x <= hi, which
//     is also its meaning under three-valued logic in every executor. An
//     IN list drops its NULL items, prunes a segment whose zone map
//     refutes equality with every literal, and probes a sorted literal
//     set from integer or string vectors. NOT BETWEEN, NOT IN,
//     IN (subquery) and bounds or items that are not literals run the
//     bound closure row by row over the selection, which never prunes.
//     Every typed loop decides a row exactly as datum.Compare orders its
//     kind pairing, and a pairing without one (a TEXT column against a
//     number, a column without a typed vector) decides each row datum.
//   - Pruning is proven conservative: a segment is skipped only when the
//     zone map refutes the predicate under the same datum.Compare total
//     order the row-level verdicts use, so a pruned segment can never
//     contain a surviving row. The differential pruning corpus
//     (pruning_diff_test.go) pins every execution identical across
//     segment-boundary literals, all-NULL segments, NULL-literal
//     comparisons, and prune-everything predicates.
//   - The unsealed tail has no zone maps and no typed vectors. Its chunks
//     go through the same selection vector and the same narrow loop of
//     each predicate shape, which decides each tail row's datums, and so
//     do an index scan's candidate rows; tables smaller than one segment
//     therefore behave exactly as the previous row-major heap did, and
//     their plans carry no segment attributes at all.
//
// Scans report SegsScanned/SegsPruned through OpStats; bridged plans
// expose them as the "segments"/"segspruned" attrs, the narrator turns
// them into the "skipping N of M storage segments via zone maps"
// callout, and trace spans and the slow-query log carry the same totals.
// The planner consumes zone maps at plan time too: seqScanCost charges
// only the fraction of rows whose segments the compiled predicate cannot
// refute (predictedPruneFraction), so a clustered predicate's seq scan
// is costed — and chosen — accordingly. Its row estimate folds the
// numeric bounds a conjunction places on one column (<, <=, > and >=
// against a numeric literal on either side, and BETWEEN) into one
// interval, estimated as the interval's share of the column's
// [min, max], so a key window estimates the same whichever way it is
// written; every other conjunct multiplies in. A single bound estimates
// as its own interpolation, reversed bounds hit the selectivity floor,
// and bounds on non-numeric columns (the TPC-H dates are strings) keep
// their defaults. Config.DisableZonePruning is the ablation knob: it
// disables segment skipping and the planner's prune costing (results
// are pinned unchanged), leaving the typed-loop gains in place.
//
// Disk-backed tables (a catalog opened over a data directory,
// internal/catalog + internal/pager) extend the contract without
// changing it. A spilled segment keeps its zone maps, distinct sketches
// and row count resident — only the payload (typed vectors, null
// bitmaps, row-major view) lives in the segment file — so the pruning
// check above runs on metadata alone and a refuted segment costs zero
// I/O, not just zero rows: the buffer pool's miss counter is pinned
// unchanged by test (disk_test.go). A surviving segment is faulted in
// through Segment.Load, which pins a buffer-pool frame for the duration
// of that segment's scan; scans release the previous segment's pin
// before loading the next, so a serial scan holds at most one frame and
// a parallel scan at most one per worker. Index scans fetch their
// candidate rows through Snapshot.FetchRows, which pins a spilled
// segment once per run of consecutive row ids inside it rather than once
// per row, so a pool over budget decodes each segment once per run
// instead of once per fetched row. Rows handed downstream remain valid
// after the pin is released and even after eviction (the payload
// is garbage-collected storage, the pool only bounds what it keeps
// cached), so the batch row-retention rule below is unaffected. The one
// visible change is the failure mode: I/O and checksum errors on the
// fault path surface as query errors (wrapping pager.ErrChecksum for
// corruption) on every executor rather than panics.
//
// # Morsel-driven parallelism
//
// Plans whose estimated driver cardinality justifies it execute with
// intra-query parallelism (parallel.go), morsel-at-a-time in the style
// of HyPer: the driving base-table scan is split into morsels aligned to
// the storage segments (at most morselSize rows each, lowered to
// Config.ParallelRowsPerWorker when that is configured smaller; the tail
// chunks the same way) handed out by an atomic dispenser, and each
// worker runs the serial batch operators over its morsels, its driver
// scan being the serial seqScanVec positioned on one morsel at a time — a
// worker handed a zone-pruned segment's morsel skips it without reading
// a row, so pruning composes with parallelism — operators
// above the scan are unchanged; parallelism is purely a property of the
// exchange at the root:
//
//   - Gather emits each morsel's output in morsel order, which IS the
//     serial row order — parallel execution is order-indistinguishable
//     from serial even without ORDER BY, pinned by test. A LIMIT that
//     would pull a gather through streaming operators only (Unique, or
//     none) keeps the plan serial: the workers would go on draining
//     morsels after the LIMIT had its rows, so the work done and the
//     scan's actuals would differ from run to run. A Sort, aggregate or
//     GroupAggregate between the LIMIT and the exchange drains its input
//     either way, so those plans stay parallel.
//   - Aggregations pre-aggregate per worker in the serial aggregate's
//     accumulator and merge the workers' groups, ordering them by first
//     appearance (minimum first-row sequence) before the shared finish
//     step. MIN and MAX carry the sequence of their value's row, so of
//     equal values that print apart (0.0 and -0.0) the merge keeps the
//     earlier row's, as the serial fold does.
//   - Sort / top-K merge per-worker runs by (sort key, sequence), so
//     ties break by arrival order exactly as the serial stable sort.
//   - Each hash join on the driver spine builds once per run, before the
//     workers start: a serial pipeline over the build subtree drains
//     through the serial join's build loop into one table, which every
//     worker's probe clone reads. Duplicate matches therefore come out in
//     the serial build's bucket order.
//
// The planner decides the degree of parallelism from cardinality
// estimates: dop = ceil(estimated rows / Config.ParallelRowsPerWorker),
// clamped to Config.MaxQueryParallelism (0 = GOMAXPROCS, negative =
// force serial); small inputs stay serial so the morsel machinery costs
// nothing on point lookups. Node.DOP records the decision on the plan
// (1 = considered and kept serial, >=2 = parallel). The serving layer's
// per-request max_parallelism hint can lower the cap per query but never
// raise it. Workers propagate errors through the exchange, which cancels
// the dispenser and drains the pool; Close during a parallel stream
// (client disconnect) does the same, pinned by the cancellation tests.
//
// Instrumented parallel runs count batches with atomic adds, since the
// workers' clones of an operator share one OpStats; per-worker actuals
// (rows, busy time) aggregate into the driving operator's stats as
// OpStats.PerWorker, with OpStats.Workers carrying the worker count the
// narrator calls out and WantedWorkers recording the DOP a mis-estimated
// plan left on the table.
//
// # Operator contracts
//
//   - A batch returned by NextBatch is transient: it is valid only until
//     the next NextBatch or Close call on that iterator. The row DATA
//     inside a batch is not transient — derived rows (joins, projections)
//     are packed into freshly allocated arenas that are never reused, and
//     scan rows alias the table heap — so a consumer may retain
//     individual rows forever, but must copy the batch slice itself if it
//     wants to hold more than the current batch, and must never mutate a
//     row in place.
//   - Open may be called again after exhaustion to rescan (scans rewind
//     for free; buffering operators recompute).
//   - All expressions are pre-bound at construction time (bind.go):
//     column references resolve to ordinals once, so per-row evaluation
//     performs no schema lookups and no allocation. Vectorized scans go
//     further and compile conjunctions of comparisons, BETWEEN and IN
//     lists over columns into typed predicate loops (vexpr.go). Join
//     predicates bind against a two-part environment (probe/outer row +
//     build/inner row) and are
//     checked before the joined row is materialized, so non-matching
//     candidate pairs cost nothing.
//
// # Limit short-circuiting and top-K
//
// Limit stops pulling from its child once offset+limit rows have been
// seen, so `LIMIT 10` over a scan stops after the scan's first 64-row
// chunk instead of reading the whole table: batch granularity trades a
// bounded amount of work on tiny limits for the batch loop's throughput
// everywhere else. Whole batches inside the OFFSET are skipped without
// touching their rows. When a Sort feeds a Limit directly, the
// planner marks
// the Sort with SortLimit = limit + offset and the executor keeps a
// bounded top-K heap (O(n log k), O(k) space) instead of buffering and
// sorting the full input; arrival order breaks ties, so the result is
// bit-identical to a stable full sort followed by truncation. Top-K does
// not apply when a cardinality-changing operator (Unique, aggregation)
// sits between the Sort and the Limit.
//
// # Native plan bridge and instrumentation
//
// The engine's plans reach the narrator directly through the native
// bridge (bridge.go): ToPlanNode converts a physical plan into the
// vendor-neutral plan.Node tree with Source "native". The bridge is the
// one walker of the plan that decides what a plan reports (condition
// text, keys, rounded costs); explainAs hands its tree to the plan
// package's formatter for every EXPLAIN format but text, and text
// EXPLAIN (explain.go) is the only other walker. Parsing a written
// document gives the bridged tree back: internal/plan pins Parse∘Format
// as the identity for the pg and native formats, and the differential
// test here does so for pg across the corpus and planner configurations.
// The serving layer therefore narrates SQL from the bridged tree
// (plan.FromEngine) and writes no document for those formats.
//
// Runtime instrumentation is opt-in per execution and follows EXPLAIN
// ANALYZE semantics:
//
//   - Disabled (Exec): the batch pipeline runs with no wrapper objects
//     and no counters — zero extra allocations and zero extra branches
//     per batch. The allocation guards in alloc_test.go enforce this.
//   - Enabled (ExecPlanInstrumented, QueryInstrumented,
//     QueryStreamInstrumented, or the EXPLAIN ANALYZE statement): the
//     same batch pipeline runs, serial or parallel, with every operator
//     wrapped in an instrVecIter that adds each batch's row count and
//     inclusive wall time (a parent's time contains its children's, as
//     PostgreSQL reports it) to the operator's OpStats. Loops are 1: no
//     operator is re-opened. Counting per batch makes actual rows
//     batch-granular under a streaming LIMIT: the scan below `LIMIT 10`
//     reports the 64 rows of its first chunk, while a Sort below a LIMIT
//     keeps a top-K heap and reports the limit. BenchmarkExec*Instrumented
//     pins what instrumentation costs against the uninstrumented twins.
//
// Collected stats annotate bridged trees via the standardized attrs
// AttrActualRows / AttrLoops / AttrTimeMs, plus AttrWorkers /
// AttrWorkersWanted on parallel (or should-have-been-parallel)
// operators; wall time and the per-worker row split are the
// non-deterministic ones — time is excluded from plan fingerprints, and
// the split is never serialized at all.
//
// # Reference executor
//
// The original materialize-everything executor (executor.go) is retained
// behind Config.ReferenceExec as the semantic oracle: the differential
// tests run the full corpus and a randomized query generator through the
// batch executor (plain and instrumented), the morsel-parallel exchange
// and the reference executor, and assert identical row multisets
// (sequences, under ORDER BY); the engine benchmarks report batch /
// reference pairs. Plan selection is identical in all modes.
package engine
