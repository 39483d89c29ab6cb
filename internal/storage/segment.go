package storage

import (
	"sort"

	"lantern/internal/datum"
)

// DefaultSegmentRows is the number of rows a sealed column segment holds.
// The mutable tail seals into a segment when it reaches this size; the
// value matches the executor's morsel granularity so one morsel is one
// segment and zone-map pruning composes with parallel dispatch for free.
const DefaultSegmentRows = 4096

// ZoneMap is the lightweight per-segment metadata of one column: the
// bounds and null count the executor consults to skip a whole segment
// without touching its data, and the catalog folds into table statistics
// without rescanning the heap.
type ZoneMap struct {
	// Min and Max bound the non-NULL values of the column within the
	// segment under datum.Compare's total order. Both are the NULL datum
	// when the segment holds no non-NULL value for the column.
	Min, Max datum.D
	// NullCount is the number of NULL values in the segment's column.
	NullCount int
}

// ColVec is one column of a sealed segment as a typed vector: the payloads
// decoded out of their datum headers into a flat array of the column's
// declared kind, plus a null bitmap. Predicate loops over Ints/Floats/Strs
// touch one contiguous array instead of chasing a row header per row.
// Kind is KNull when the column has no typed vector (unsupported or mixed
// kinds); callers then fall back to the segment's row-major view.
type ColVec struct {
	Kind   datum.Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	nulls  []uint64 // 1 bit per row, set = NULL; nil when no NULLs
}

// Null reports whether row i of the vector is NULL.
func (v *ColVec) Null(i int) bool {
	return v.nulls != nil && v.nulls[i>>6]&(1<<(uint(i)&63)) != 0
}

// HasNulls reports whether any row of the vector is NULL.
func (v *ColVec) HasNulls() bool { return v.nulls != nil }

// Segment is an immutable run of table rows in column-major form: one
// typed vector and one zone map per column, plus the row-major view the
// executors late-materialize surviving rows from. Segments are sealed
// once and never mutated, which is what makes concurrent scans safe
// against DML — writers only ever swap in new segments.
//
// A segment is either resident (rows/cols populated) or spilled (payload
// in a segment file, src set; see spill.go). Zone maps, distinct
// sketches and the row count are always resident — pruning and ANALYZE
// never fault a spilled payload in. Payload access goes through Load,
// which faults a spilled payload in and returns I/O and checksum errors.
type Segment struct {
	nrows  int
	rows   []Row
	cols   []ColVec
	zones  []ZoneMap
	sketch [][]string // per column: sorted distinct non-NULL value keys
	src    *segSource // non-nil once spilled; payload lives on disk
	view   SegData    // static Load view for resident segments (no pin)
}

// NumRows returns the number of rows in the segment.
func (s *Segment) NumRows() int { return s.nrows }

// Zone returns the zone map of column i.
func (s *Segment) Zone(i int) ZoneMap { return s.zones[i] }

// DistinctKeys returns the sorted distinct non-NULL value keys
// (datum String() renderings) of column i — the per-segment distinct
// sketch ANALYZE merges into table statistics. Exact, since a segment
// holds at most its row count of distinct values.
func (s *Segment) DistinctKeys(i int) []string { return s.sketch[i] }

// sealSegment builds a segment from a full run of validated rows. The rows
// slice is adopted as the segment's row-major view and must not be written
// afterwards.
func sealSegment(rows []Row, cols []Column) *Segment {
	s := &Segment{
		nrows:  len(rows),
		rows:   rows,
		cols:   make([]ColVec, len(cols)),
		zones:  make([]ZoneMap, len(cols)),
		sketch: make([][]string, len(cols)),
	}
	for ci := range cols {
		s.sealColumn(ci, cols[ci].Type)
	}
	s.view = SegData{rows: s.rows, cols: s.cols}
	return s
}

func (s *Segment) sealColumn(ci int, kind datum.Kind) {
	n := len(s.rows)
	vec := &s.cols[ci]
	zm := ZoneMap{Min: datum.Null, Max: datum.Null}
	distinct := make(map[string]struct{})

	// Insert validation coerces every value to the declared column kind,
	// so a typed vector of that kind can hold the whole column; a stray
	// mismatched kind (possible only through historical data) downgrades
	// the column to the row-major fallback.
	typed := true
	switch kind {
	case datum.KInt:
		vec.Ints = make([]int64, n)
	case datum.KFloat:
		vec.Floats = make([]float64, n)
	case datum.KString:
		vec.Strs = make([]string, n)
	default:
		typed = false
	}
	for i, r := range s.rows {
		v := r[ci]
		if v.IsNull() {
			zm.NullCount++
			if vec.nulls == nil {
				vec.nulls = make([]uint64, (n+63)/64)
			}
			vec.nulls[i>>6] |= 1 << (uint(i) & 63)
			continue
		}
		if zm.Min.IsNull() || datum.Compare(v, zm.Min) < 0 {
			zm.Min = v
		}
		if zm.Max.IsNull() || datum.Compare(v, zm.Max) > 0 {
			zm.Max = v
		}
		distinct[v.String()] = struct{}{}
		if !typed {
			continue
		}
		if v.Kind() != kind {
			typed = false
			continue
		}
		switch kind {
		case datum.KInt:
			vec.Ints[i] = v.Int()
		case datum.KFloat:
			vec.Floats[i] = v.Float()
		case datum.KString:
			vec.Strs[i] = v.Str()
		}
	}
	if typed {
		vec.Kind = kind
	} else {
		vec.Kind = datum.KNull
		vec.Ints, vec.Floats, vec.Strs = nil, nil, nil
	}
	s.zones[ci] = zm
	keys := make([]string, 0, len(distinct))
	for k := range distinct {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s.sketch[ci] = keys
}
