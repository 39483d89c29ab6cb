package lantern

// Differential check of the batch executor against the
// materializing reference executor over the full TPC-H workload on the
// seed catalog — the engine-internal differential tests cover the
// operator matrix on a small schema; this covers the paper's actual
// query corpus at dataset scale. Results must match as multisets, and as
// exact sequences when the query has ORDER BY.

import (
	"sort"
	"strings"
	"testing"

	"lantern/internal/datasets"
	"lantern/internal/engine"
	"lantern/internal/sqlparser"
	"lantern/internal/storage"
)

func diffRowStrings(rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func TestTPCHDifferentialStreamingVsReference(t *testing.T) {
	e := engine.NewDefault()
	if err := datasets.LoadTPCH(e, 0.02, 1); err != nil {
		t.Fatal(err)
	}
	for _, w := range datasets.TPCHWorkload() {
		e.Cfg.ReferenceExec = false
		stream, sErr := e.Exec(w.SQL)
		e.Cfg.ReferenceExec = true
		ref, rErr := e.Exec(w.SQL)
		e.Cfg.ReferenceExec = false
		if (sErr != nil) != (rErr != nil) {
			t.Fatalf("%s: stream err = %v, reference err = %v", w.Name, sErr, rErr)
		}
		if sErr != nil {
			t.Errorf("%s: exec: %v", w.Name, sErr)
			continue
		}
		got, want := diffRowStrings(stream.Rows), diffRowStrings(ref.Rows)
		sel, err := sqlparser.ParseSelect(w.SQL)
		if err != nil {
			t.Fatal(err)
		}
		if len(sel.OrderBy) == 0 {
			sort.Strings(got)
			sort.Strings(want)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: stream %d rows, reference %d", w.Name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: row %d differs\nstream:    %s\nreference: %s", w.Name, i, got[i], want[i])
			}
		}
	}
}

// TestTPCHDifferentialParallelVsSerial runs the TPC-H workload through the
// morsel-parallel executor with the DOP policy forced up (4 workers, tiny
// per-worker shares so every table splits into many morsels) and pins the
// results against the serial vectorized executor — exact sequences under
// ORDER BY, multisets otherwise.
func TestTPCHDifferentialParallelVsSerial(t *testing.T) {
	e := engine.NewDefault()
	if err := datasets.LoadTPCH(e, 0.02, 1); err != nil {
		t.Fatal(err)
	}
	par := e.Session()
	par.Cfg.MaxQueryParallelism = 4
	par.Cfg.ParallelRowsPerWorker = 64
	for _, w := range datasets.TPCHWorkload() {
		serial, sErr := e.Exec(w.SQL)
		parallel, pErr := par.Exec(w.SQL)
		if (sErr != nil) != (pErr != nil) {
			t.Fatalf("%s: serial err = %v, parallel err = %v", w.Name, sErr, pErr)
		}
		if sErr != nil {
			t.Errorf("%s: exec: %v", w.Name, sErr)
			continue
		}
		got, want := diffRowStrings(parallel.Rows), diffRowStrings(serial.Rows)
		sel, err := sqlparser.ParseSelect(w.SQL)
		if err != nil {
			t.Fatal(err)
		}
		if len(sel.OrderBy) == 0 {
			sort.Strings(got)
			sort.Strings(want)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: parallel %d rows, serial %d", w.Name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: row %d differs\nparallel: %s\nserial:   %s", w.Name, i, got[i], want[i])
			}
		}
	}
}
