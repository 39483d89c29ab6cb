package engine

// Disk-backed execution tests: the engine over a catalog opened on a data
// directory, with sealed segments spilled to segment files and served
// back through the pager's buffer pool. The differential leg reruns the
// full query corpus with a buffer pool deliberately sized below the
// spilled data, so every executor faults payloads in and out under
// eviction pressure; the I/O-accounting tests pin the tentpole contract
// that a zone-pruned segment is never faulted in at all.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lantern/internal/catalog"
	"lantern/internal/pager"
)

// diskDB builds the standard test database on a disk-backed catalog with
// tiny segments (capacity 8), so every table spills multiple segment
// files. poolBytes sizes the buffer pool (1 byte = evict-after-unpin).
func diskDB(t *testing.T, cfg Config, poolBytes int64) *Engine {
	t.Helper()
	cat, err := catalog.Open(t.TempDir(), pager.Config{BufferPoolBytes: poolBytes})
	if err != nil {
		t.Fatal(err)
	}
	e := NewWithCatalog(cfg, cat)
	seedTestDB(t, e, 8)
	return e
}

// TestDifferentialCorpusDiskBacked is the disk-backed leg of the
// differential corpus: all four executors over spilled tables with a
// 1-byte buffer pool, so no payload ever stays cached and every scan
// faults its segments from disk. Results must match the in-memory
// reference row for row.
func TestDifferentialCorpusDiskBacked(t *testing.T) {
	e := diskDB(t, DefaultConfig(), 1)
	for _, q := range diffCorpus {
		mustExec(t, e, q)
		assertSameResults(t, e, q)
	}
	st := e.Cat.Pager().Pool().Stats()
	if st.Misses == 0 || st.Evictions == 0 {
		t.Fatalf("corpus never exercised the constrained pool: %+v", st)
	}
}

// TestDiskBackedDML runs UPDATE/DELETE (the streaming COW rebuilds) and
// index DDL against spilled tables mid-corpus, then re-checks a few
// queries differentially.
func TestDiskBackedDML(t *testing.T) {
	e := diskDB(t, DefaultConfig(), 64<<10)
	mustExec(t, e, "UPDATE orders SET o_totalprice = o_totalprice + 1 WHERE o_orderkey % 5 = 0")
	mustExec(t, e, "DELETE FROM orders WHERE o_orderkey > 55")
	mustExec(t, e, "CREATE INDEX orders_ck ON orders (o_custkey)")
	for _, q := range []string{
		"SELECT COUNT(*), SUM(o_totalprice) FROM orders",
		"SELECT c.c_name, o.o_orderkey FROM customer c, orders o WHERE c.c_custkey = o.o_custkey",
		"SELECT o_orderkey FROM orders WHERE o_custkey = 7",
		"SELECT o_orderkey FROM orders ORDER BY o_totalprice DESC LIMIT 9",
	} {
		mustExec(t, e, q)
		assertSameResults(t, e, q)
	}
}

// TestZonePrunedScanZeroIO pins the tentpole's I/O contract: pruning
// consults only resident footer metadata, so a scan whose predicate
// refutes a segment's zone map never faults that segment in. The table
// spans four spilled segments with disjoint key ranges; a point query
// into the last segment may fault exactly one payload, and a
// prune-everything query faults none.
func TestZonePrunedScanZeroIO(t *testing.T) {
	cat, err := catalog.Open(t.TempDir(), pager.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewWithCatalog(DefaultConfig(), cat)
	mustExec(t, e, "CREATE TABLE zp (k INTEGER, v INTEGER)")
	tbl, err := e.Cat.Table("zp")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetSegmentCapacity(4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		// Segment s holds k in [100s, 100s+3]: disjoint zone ranges.
		mustExec(t, e, fmt.Sprintf("INSERT INTO zp VALUES (%d, %d)", (i/4)*100+i%4, i))
	}
	pool := cat.Pager().Pool()

	base := pool.Stats().Misses
	r := mustExec(t, e, "SELECT v FROM zp WHERE k = 301")
	if len(r.Rows) != 1 {
		t.Fatalf("rows: %d", len(r.Rows))
	}
	if got := pool.Stats().Misses - base; got != 1 {
		t.Fatalf("point query into one segment faulted %d payloads, want 1", got)
	}

	base = pool.Stats().Misses
	r = mustExec(t, e, "SELECT v FROM zp WHERE k > 1000")
	if len(r.Rows) != 0 {
		t.Fatalf("rows: %d", len(r.Rows))
	}
	if got := pool.Stats().Misses - base; got != 0 {
		t.Fatalf("prune-everything query faulted %d payloads, want 0 (zero I/O)", got)
	}

	// The instrumented run honors the same contract.
	base = pool.Stats().Misses
	if _, err := e.QueryInstrumented("SELECT v FROM zp WHERE k > 1000"); err != nil {
		t.Fatal(err)
	}
	if got := pool.Stats().Misses - base; got != 0 {
		t.Fatalf("instrumented pruned scan faulted %d payloads, want 0", got)
	}
}

// TestCorruptSegmentIsStructuredError pins the failure mode of on-disk
// corruption: a flipped payload byte surfaces through SQL execution as an
// error wrapping pager.ErrChecksum on every executor — never a panic.
func TestCorruptSegmentIsStructuredError(t *testing.T) {
	dir := t.TempDir()
	cat, err := catalog.Open(dir, pager.Config{BufferPoolBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := NewWithCatalog(DefaultConfig(), cat)
	mustExec(t, e, "CREATE TABLE bad (k INTEGER)")
	tbl, err := e.Cat.Table("bad")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetSegmentCapacity(4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO bad VALUES (%d)", i))
	}
	file := filepath.Join(dir, pager.SegmentFileName("bad", 0))
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0xff
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"vectorized", "instrumented", "reference"} {
		e.Cfg.ReferenceExec = mode == "reference"
		var err error
		if mode == "instrumented" {
			_, err = e.QueryInstrumented("SELECT COUNT(*) FROM bad")
		} else {
			_, err = e.Exec("SELECT COUNT(*) FROM bad")
		}
		if !errors.Is(err, pager.ErrChecksum) {
			t.Fatalf("%s executor on corrupt segment: err = %v, want ErrChecksum", mode, err)
		}
	}
}

// TestDiskBackedParallelScan forces the morsel-parallel executor over
// spilled segments under a constrained pool: workers fault and release
// segments concurrently and the merged output matches the reference.
func TestDiskBackedParallelScan(t *testing.T) {
	e := diskDB(t, DefaultConfig(), 1)
	par := e.Session()
	par.Cfg.MaxQueryParallelism = 4
	par.Cfg.ParallelRowsPerWorker = 1
	for _, q := range []string{
		"SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice > 100",
		"SELECT o_status, COUNT(*), SUM(o_orderkey) FROM orders GROUP BY o_status",
		"SELECT c.c_name, o.o_orderkey FROM customer c, orders o WHERE c.c_custkey = o.o_custkey ORDER BY o.o_orderkey",
	} {
		mustExec(t, par, q)
		assertSameResults(t, e, q)
	}
}
