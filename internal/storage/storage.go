// Package storage implements the in-memory column-segment store used by
// the substrate engine. A table is a sequence of immutable column-major
// segments (segment.go: one typed vector per column, a null bitmap, and
// per-column zone maps) followed by a mutable row-major tail that seals
// into a segment when it reaches the segment capacity. Access paths are
// real: sequential scans walk segments and can skip whole segments via
// zone maps, index scans binary-search ordered secondary indexes and
// fetch the matching rows through Snapshot.FetchRows, which pins a
// spilled segment once per run of consecutive row ids inside it.
//
// Concurrency contract: readers take a Snapshot and never block or race
// against writers. Sealed segments are immutable; the tail publishes its
// length with an atomic store after the row slot is written, so an
// in-flight scan sees a consistent prefix; Update, Delete and CreateIndex
// rebuild into fresh segments and swap the whole table state with one
// atomic pointer store. Writers serialize among themselves on an internal
// mutex. DML therefore needs no external synchronization against readers —
// a scan started before a mutation simply keeps reading the snapshot it
// started on.
package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"lantern/internal/datum"
	"lantern/internal/pager"
)

// Column describes one column of a table.
type Column struct {
	Name string
	Type datum.Kind
}

// Row is a single tuple; the slice is indexed by column position.
type Row []datum.D

// Clone returns a copy of the row that shares no storage with the original.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Table is an append-only table of sealed column segments plus a mutable
// row-major tail, with optional ordered secondary indexes.
type Table struct {
	Name    string
	Columns []Column

	segCap int
	colPos map[string]int

	// Disk backing (spill.go); nil for a purely in-memory table. All
	// fields below are guarded by mu.
	store     *pager.Store
	nextSeg   uint64 // next unused segment file id
	tailEpoch uint64 // current tail file epoch
	tailFile  string // manifest-relative tail file name, "" when empty

	mu   sync.Mutex // serializes writers; readers go through data only
	data atomic.Pointer[tableData]
}

// tableData is one immutable-once-published version of the table's
// contents. Every sealed segment holds exactly segCap rows, so a global
// row ordinal resolves to (segment, offset) in O(1).
type tableData struct {
	segs    []*Segment
	sealed  int // total rows across segs
	tail    *tailBlock
	indexes map[string]*Index // keyed by column name
}

// tailBlock is the mutable tail: slots are written in place (only ever at
// positions >= the published length, under the writer mutex) and made
// visible to readers by the atomic length store.
type tailBlock struct {
	rows []Row // len == cap == segCap
	n    atomic.Int64
}

func newTailBlock(cap int) *tailBlock { return &tailBlock{rows: make([]Row, cap)} }

// NewTable creates an empty table with the given schema and the default
// segment capacity.
func NewTable(name string, cols []Column) *Table {
	t := &Table{
		Name:    name,
		Columns: cols,
		segCap:  DefaultSegmentRows,
		colPos:  make(map[string]int, len(cols)),
	}
	for i, c := range cols {
		t.colPos[c.Name] = i
	}
	t.data.Store(&tableData{tail: newTailBlock(t.segCap)})
	return t
}

// SetSegmentCapacity overrides the rows-per-segment capacity; it exists so
// tests can exercise multi-segment layouts without millions of rows. It
// fails once the table holds rows.
func (t *Table) SetSegmentCapacity(n int) error {
	if n < 1 {
		return fmt.Errorf("storage: segment capacity %d < 1", n)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.data.Load()
	if d.sealed > 0 || d.tail.n.Load() > 0 {
		return fmt.Errorf("storage: table %s: cannot change segment capacity once populated", t.Name)
	}
	prev := t.segCap
	t.segCap = n
	nd := &tableData{tail: newTailBlock(n), indexes: d.indexes}
	if err := t.commitTableLocked(nd, 0, false, nil); err != nil {
		t.segCap = prev
		return err
	}
	t.data.Store(nd)
	return nil
}

// SegmentCapacity returns the rows-per-segment capacity.
func (t *Table) SegmentCapacity() int { return t.segCap }

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colPos[name]; ok {
		return i
	}
	return -1
}

// --- Snapshots --------------------------------------------------------------

// Snapshot is a consistent, immutable view of a table: the sealed
// segments, a frozen prefix of the tail, and the indexes as of the
// snapshot. Scans hold one for their whole lifetime, so concurrent DML
// never changes what they see.
type Snapshot struct {
	d     *tableData
	tailN int
}

// Snapshot captures the table's current contents.
func (t *Table) Snapshot() Snapshot {
	d := t.data.Load()
	return Snapshot{d: d, tailN: int(d.tail.n.Load())}
}

// Segments returns the sealed segments in table order.
func (s Snapshot) Segments() []*Segment { return s.d.segs }

// Tail returns the unsealed tail rows in table order. Rows are immutable
// once published; the slice itself must not be written.
func (s Snapshot) Tail() []Row { return s.d.tail.rows[:s.tailN] }

// NumRows returns the total row count of the snapshot.
func (s Snapshot) NumRows() int { return s.d.sealed + s.tailN }

// SealedRows returns the number of rows held in sealed segments.
func (s Snapshot) SealedRows() int { return s.d.sealed }

// FetchRow resolves a global row ordinal (index order: segments then
// tail), faulting a spilled segment in through the buffer pool. The row
// stays valid after the internal pin is released (the payload is GC-held
// while referenced).
func (s Snapshot) FetchRow(i int) (Row, error) {
	if i < s.d.sealed {
		per := segRowsOf(s.d)
		seg := s.d.segs[i/per]
		if seg.src == nil {
			return seg.rows[i%per], nil
		}
		sd, err := seg.Load()
		if err != nil {
			return nil, err
		}
		defer sd.Release()
		return sd.rows[i%per], nil
	}
	return s.d.tail.rows[i-s.d.sealed], nil
}

// FetchRows appends the rows at the given global ordinals to dst, in ids
// order, and returns it. A spilled segment is pinned once for each run of
// consecutive ids that falls inside it, not once per row: an index range
// over a clustered key touches each segment in one run, so a buffer pool
// over budget decodes the segment once instead of once per row.
func (s Snapshot) FetchRows(dst []Row, ids []int) ([]Row, error) {
	per := segRowsOf(s.d)
	for i := 0; i < len(ids); {
		id := ids[i]
		if id >= s.d.sealed {
			dst = append(dst, s.d.tail.rows[id-s.d.sealed])
			i++
			continue
		}
		seg := s.d.segs[id/per]
		sd, err := seg.Load()
		if err != nil {
			return dst, err
		}
		base := id - id%per
		for ; i < len(ids) && ids[i] >= base && ids[i] < base+per; i++ {
			dst = append(dst, sd.rows[ids[i]-base])
		}
		sd.Release()
	}
	return dst, nil
}

// segRowsOf recovers the per-segment capacity of a table version from its
// first sealed segment (every sealed segment is full by construction).
func segRowsOf(d *tableData) int {
	if len(d.segs) == 0 {
		return 1 // unused: sealed == 0 routes every ordinal to the tail
	}
	return d.segs[0].NumRows()
}

// Index returns the snapshot's index on col, or nil.
func (s Snapshot) Index(col string) *Index { return s.d.indexes[col] }

// FetchAll materializes the whole snapshot in table order, faulting
// spilled segments in and returning their read failures. This is the
// materialize-everything path; larger-than-memory paths should iterate
// segments via Segment.Load instead.
func (s Snapshot) FetchAll() ([]Row, error) {
	dst := make([]Row, 0, s.NumRows())
	for _, seg := range s.d.segs {
		sd, err := seg.Load()
		if err != nil {
			return nil, err
		}
		dst = append(dst, sd.Rows()...)
		sd.Release()
	}
	return append(dst, s.Tail()...), nil
}

// RowCount returns the table's current row count.
func (t *Table) RowCount() int { return t.Snapshot().NumRows() }

// --- Writes -----------------------------------------------------------------

// coerceRow validates arity and kinds in place, coercing integer values
// into float columns (and exact floats into integer columns).
func (t *Table) coerceRow(row Row) error {
	if len(row) != len(t.Columns) {
		return fmt.Errorf("storage: table %s: inserting %d values into %d columns", t.Name, len(row), len(t.Columns))
	}
	for i, v := range row {
		if v.IsNull() {
			continue
		}
		want := t.Columns[i].Type
		if v.Kind() == want {
			continue
		}
		if want == datum.KFloat && v.Kind() == datum.KInt {
			row[i] = datum.NewFloat(float64(v.Int()))
			continue
		}
		if want == datum.KInt && v.Kind() == datum.KFloat && v.Float() == float64(int64(v.Float())) {
			row[i] = datum.NewInt(int64(v.Float()))
			continue
		}
		return fmt.Errorf("storage: table %s column %s: cannot store %s into %s",
			t.Name, t.Columns[i].Name, v.Kind(), want)
	}
	return nil
}

// Insert appends a copy of the row, coercing integer values into float
// columns and validating arity and kinds. Indexes are maintained
// (copy-on-write, so concurrent readers stay consistent).
func (t *Table) Insert(r Row) error {
	row := r.Clone()
	if err := t.coerceRow(row); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.appendLocked(row)
}

// InsertBatch bulk-loads validated rows in one pass: no per-row Clone (the
// table takes ownership of the rows and their backing arrays), segments
// seal as they fill, and indexes rebuild once at the end instead of once
// per row. Validation runs before any mutation, so a bad row leaves the
// table untouched.
func (t *Table) InsertBatch(rows []Row) error {
	for _, r := range rows {
		if err := t.coerceRow(r); err != nil {
			return err
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.data.Load()
	segs := d.segs
	sealed := d.sealed
	tail := d.tail
	tailN := int(tail.n.Load())
	sealedAny := false
	for i := 0; i < len(rows); {
		take := t.segCap - tailN
		if rem := len(rows) - i; rem < take {
			take = rem
		}
		copy(tail.rows[tailN:], rows[i:i+take])
		tailN += take
		i += take
		if tailN == t.segCap {
			if !sealedAny {
				segs = append(make([]*Segment, 0, len(segs)+1), segs...)
				sealedAny = true
			}
			segs = append(segs, sealSegment(tail.rows, t.Columns))
			sealed += t.segCap
			tail = newTailBlock(t.segCap)
			tailN = 0
		}
	}
	nd := &tableData{segs: segs, sealed: sealed, tail: tail, indexes: d.indexes}
	if len(d.indexes) > 0 {
		// Freshly sealed segments are still resident here, so the index
		// build touches no disk; spilling happens after.
		ix, err := buildIndexes(nd, tailN, t.colPos, indexColumns(d.indexes))
		if err != nil {
			return err
		}
		nd.indexes = ix
	}
	// Persist before publishing: spill the new segments, write the tail
	// file, commit the manifest. On error nothing is published — the rows
	// copied into unpublished tail slots stay invisible.
	if sealedAny {
		if err := t.spillNewSegmentsLocked(nd.segs); err != nil {
			return err
		}
	}
	if err := t.commitTableLocked(nd, tailN, tail != d.tail, nil); err != nil {
		return err
	}
	// Publish lengths after the slot writes, then the new table version.
	tail.n.Store(int64(tailN))
	if tail != d.tail {
		d.tail.n.Store(int64(t.segCap)) // the old tail filled completely
	}
	t.data.Store(nd)
	return nil
}

// appendLocked inserts one validated row, sealing the tail into a segment
// when it fills and persisting the new state before publication when a
// store is attached. Callers hold t.mu.
func (t *Table) appendLocked(row Row) error {
	d := t.data.Load()
	n := int(d.tail.n.Load())
	d.tail.rows[n] = row

	var indexes map[string]*Index
	if len(d.indexes) > 0 {
		rowID := d.sealed + n
		indexes = make(map[string]*Index, len(d.indexes))
		for col, ix := range d.indexes {
			indexes[col] = ix.cloneAdd(row[t.colPos[col]], rowID)
		}
	}

	if n+1 < t.segCap {
		if indexes == nil && t.store == nil {
			// Fast path: publishing the new length is the whole commit.
			d.tail.n.Store(int64(n + 1))
			return nil
		}
		nd := &tableData{segs: d.segs, sealed: d.sealed, tail: d.tail, indexes: d.indexes}
		if indexes != nil {
			nd.indexes = indexes
		}
		if err := t.commitTableLocked(nd, n+1, false, nil); err != nil {
			return err // slot n stays unpublished; a retry overwrites it
		}
		d.tail.n.Store(int64(n + 1))
		t.data.Store(nd)
		return nil
	}

	// Tail is full: seal it (adopting its row slice) and start a new one.
	seg := sealSegment(d.tail.rows, t.Columns)
	nd := &tableData{
		segs:    append(append(make([]*Segment, 0, len(d.segs)+1), d.segs...), seg),
		sealed:  d.sealed + t.segCap,
		tail:    newTailBlock(t.segCap),
		indexes: d.indexes,
	}
	if indexes != nil {
		nd.indexes = indexes
	}
	if t.store != nil {
		if err := t.spillNewSegmentsLocked(nd.segs); err != nil {
			return err
		}
		if err := t.commitTableLocked(nd, 0, true, nil); err != nil {
			return err
		}
	}
	d.tail.n.Store(int64(t.segCap))
	t.data.Store(nd)
	return nil
}

// runBuilder re-segments a stream of rows into sealed (and, with a store
// attached, spilled) segments plus a final partial run, holding at most
// one segment's rows resident at a time. It is the streaming replacement
// for the old materialize-everything rebuild: Update and Delete feed it
// segment-at-a-time, so a rebuild of a larger-than-memory table never
// needs the whole table in RAM. Callers hold t.mu.
type runBuilder struct {
	t    *Table
	segs []*Segment
	run  []Row
}

func (t *Table) newRunBuilder() *runBuilder {
	return &runBuilder{t: t, run: make([]Row, 0, t.segCap)}
}

func (b *runBuilder) add(r Row) error {
	b.run = append(b.run, r)
	if len(b.run) < b.t.segCap {
		return nil
	}
	seg := sealSegment(b.run, b.t.Columns)
	if b.t.store != nil {
		sp, err := b.t.spillSegmentLocked(seg)
		if err != nil {
			return err
		}
		seg = sp
	}
	b.segs = append(b.segs, seg)
	b.run = make([]Row, 0, b.t.segCap)
	return nil
}

// aligned reports whether an untouched full segment can be reused as-is:
// only when no partial run precedes it, so row ordinals keep resolving
// through the fixed per-segment capacity.
func (b *runBuilder) aligned() bool { return len(b.run) == 0 }

// reuse adopts an existing sealed segment without rewriting it.
func (b *runBuilder) reuse(seg *Segment) { b.segs = append(b.segs, seg) }

// finish assembles the rebuilt table version: the remainder becomes the
// new tail, indexes rebuild by streaming the new segments.
func (b *runBuilder) finish(indexCols []string) (*tableData, int, error) {
	nd := &tableData{segs: b.segs, sealed: len(b.segs) * b.t.segCap}
	nd.tail = newTailBlock(b.t.segCap)
	copy(nd.tail.rows, b.run)
	tailN := len(b.run)
	if len(indexCols) > 0 {
		ix, err := buildIndexes(nd, tailN, b.t.colPos, indexCols)
		if err != nil {
			return nil, 0, err
		}
		nd.indexes = ix
	}
	nd.tail.n.Store(int64(tailN))
	return nd, tailN, nil
}

// Delete removes all rows for which remove returns true, rebuilding
// segments and indexes segment-at-a-time (untouched aligned segments are
// reused without a rewrite). It returns the number of rows removed.
func (t *Table) Delete(remove func(Row) bool) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.data.Load()
	tailN := int(d.tail.n.Load())
	n := 0
	b := t.newRunBuilder()
	for _, seg := range d.segs {
		sd, err := seg.Load()
		if err != nil {
			return 0, err
		}
		kept := make([]Row, 0, seg.NumRows())
		removedHere := false
		for _, r := range sd.Rows() {
			if remove(r) {
				n++
				removedHere = true
			} else {
				kept = append(kept, r)
			}
		}
		if !removedHere && b.aligned() {
			b.reuse(seg)
			sd.Release()
			continue
		}
		for _, r := range kept {
			if err := b.add(r); err != nil {
				sd.Release()
				return 0, err
			}
		}
		sd.Release()
	}
	for _, r := range d.tail.rows[:tailN] {
		if remove(r) {
			n++
		} else if err := b.add(r); err != nil {
			return 0, err
		}
	}
	if n == 0 {
		return 0, nil
	}
	return n, t.publishRebuildLocked(b, d)
}

// Update applies fn to a copy of every row; fn returns true when it
// modified the row. Modified copies replace the originals in a rebuilt
// table version built segment-at-a-time (segments with no modified row
// are reused without a rewrite), so concurrent readers keep seeing the
// pre-update snapshot. It returns the number of modified rows.
func (t *Table) Update(fn func(Row) bool) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.data.Load()
	tailN := int(d.tail.n.Load())
	n := 0
	b := t.newRunBuilder()
	for _, seg := range d.segs {
		sd, err := seg.Load()
		if err != nil {
			return 0, err
		}
		out := make([]Row, 0, seg.NumRows())
		dirty := false
		for _, r := range sd.Rows() {
			c := r.Clone()
			if fn(c) {
				n++
				dirty = true
				out = append(out, c)
			} else {
				out = append(out, r)
			}
		}
		if !dirty && b.aligned() {
			b.reuse(seg)
			sd.Release()
			continue
		}
		for _, r := range out {
			if err := b.add(r); err != nil {
				sd.Release()
				return 0, err
			}
		}
		sd.Release()
	}
	for _, r := range d.tail.rows[:tailN] {
		c := r.Clone()
		if fn(c) {
			n++
			r = c
		}
		if err := b.add(r); err != nil {
			return 0, err
		}
	}
	if n == 0 {
		return 0, nil
	}
	return n, t.publishRebuildLocked(b, d)
}

// publishRebuildLocked finishes a streamed rebuild: builds the new table
// version, persists it (new tail epoch; replaced segment files are left
// for the next Open's orphan collection, since concurrent snapshots may
// still fault them), and swaps it in. Callers hold t.mu.
func (t *Table) publishRebuildLocked(b *runBuilder, d *tableData) error {
	nd, tailN, err := b.finish(indexColumns(d.indexes))
	if err != nil {
		return err
	}
	if err := t.commitTableLocked(nd, tailN, true, nil); err != nil {
		return err
	}
	t.data.Store(nd)
	return nil
}

// --- Indexes ----------------------------------------------------------------

// CreateIndex builds an ordered index on the named column, streaming
// spilled segments through the buffer pool one at a time. Creating an
// index that already exists is a no-op.
func (t *Table) CreateIndex(col string) error {
	if _, ok := t.colPos[col]; !ok {
		return fmt.Errorf("storage: table %s has no column %s", t.Name, col)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.data.Load()
	if _, ok := d.indexes[col]; ok {
		return nil
	}
	tailN := int(d.tail.n.Load())
	cols := append(indexColumns(d.indexes), col)
	nd := &tableData{segs: d.segs, sealed: d.sealed, tail: d.tail}
	ix, err := buildIndexes(nd, tailN, t.colPos, cols)
	if err != nil {
		return err
	}
	nd.indexes = ix
	if err := t.commitTableLocked(nd, tailN, false, nil); err != nil {
		return err
	}
	t.data.Store(nd)
	return nil
}

func indexColumns(indexes map[string]*Index) []string {
	cols := make([]string, 0, len(indexes))
	for c := range indexes {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	return cols
}

// buildIndexes builds fresh indexes over a table version's rows in one
// streaming pass — spilled segments are faulted in (and released) one at
// a time, so index builds stay larger-than-memory safe. tailN is the tail
// length to index (the tail's published length may lag it while a write
// is in flight).
func buildIndexes(d *tableData, tailN int, colPos map[string]int, cols []string) (map[string]*Index, error) {
	idxs := make([]*Index, len(cols))
	total := d.sealed + tailN
	for k, col := range cols {
		idxs[k] = &Index{Column: col, entries: make([]indexEntry, 0, total)}
	}
	rowID := 0
	add := func(rows []Row) {
		for _, r := range rows {
			for k, col := range cols {
				idxs[k].entries = append(idxs[k].entries, indexEntry{key: r[colPos[col]], rowID: rowID})
			}
			rowID++
		}
	}
	for _, seg := range d.segs {
		sd, err := seg.Load()
		if err != nil {
			return nil, err
		}
		add(sd.Rows())
		sd.Release()
	}
	add(d.tail.rows[:tailN])
	out := make(map[string]*Index, len(cols))
	for k, idx := range idxs {
		sort.SliceStable(idx.entries, func(a, b int) bool {
			return datum.Compare(idx.entries[a].key, idx.entries[b].key) < 0
		})
		out[cols[k]] = idx
	}
	return out, nil
}

// Index returns the current index on col, or nil. Scans should prefer
// Snapshot.Index so index and data come from the same table version.
func (t *Table) Index(col string) *Index { return t.data.Load().indexes[col] }

// IndexedColumns lists the columns that currently carry an index, sorted.
func (t *Table) IndexedColumns() []string {
	return indexColumns(t.data.Load().indexes)
}

// Index is an ordered secondary index: (key, rowID) pairs sorted by key.
// rowIDs are global row ordinals (segments in table order, then tail),
// resolvable through Snapshot.FetchRow. An Index is immutable once
// published; maintenance clones.
type Index struct {
	Column  string
	entries []indexEntry
}

type indexEntry struct {
	key   datum.D
	rowID int
}

// cloneAdd returns a copy of the index with one entry inserted in key
// order — copy-on-write maintenance for Insert.
func (ix *Index) cloneAdd(key datum.D, rowID int) *Index {
	pos := sort.Search(len(ix.entries), func(i int) bool {
		return datum.Compare(ix.entries[i].key, key) > 0
	})
	entries := make([]indexEntry, len(ix.entries)+1)
	copy(entries, ix.entries[:pos])
	entries[pos] = indexEntry{key: key, rowID: rowID}
	copy(entries[pos+1:], ix.entries[pos:])
	return &Index{Column: ix.Column, entries: entries}
}

// Len reports the number of entries.
func (ix *Index) Len() int { return len(ix.entries) }

// Lookup returns the rowIDs whose key equals k, in index order.
func (ix *Index) Lookup(k datum.D) []int {
	lo := sort.Search(len(ix.entries), func(i int) bool {
		return datum.Compare(ix.entries[i].key, k) >= 0
	})
	var out []int
	for i := lo; i < len(ix.entries) && datum.Compare(ix.entries[i].key, k) == 0; i++ {
		out = append(out, ix.entries[i].rowID)
	}
	return out
}

// Range returns the rowIDs with lo <= key <= hi (either bound may be the
// NULL datum to mean unbounded on that side), in key order. NULL keys are
// never returned.
func (ix *Index) Range(lo, hi datum.D, includeLo, includeHi bool) []int {
	var out []int
	start := 0
	if !lo.IsNull() {
		if includeLo {
			start = sort.Search(len(ix.entries), func(i int) bool {
				return datum.Compare(ix.entries[i].key, lo) >= 0
			})
		} else {
			start = sort.Search(len(ix.entries), func(i int) bool {
				return datum.Compare(ix.entries[i].key, lo) > 0
			})
		}
	}
	for i := start; i < len(ix.entries); i++ {
		k := ix.entries[i].key
		if k.IsNull() {
			continue
		}
		if !hi.IsNull() {
			c := datum.Compare(k, hi)
			if c > 0 || (c == 0 && !includeHi) {
				break
			}
		}
		out = append(out, ix.entries[i].rowID)
	}
	return out
}
