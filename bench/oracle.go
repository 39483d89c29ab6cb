package main

// oracle.go decides whether each answer the daemon gives is right. A wrong
// answer counts as a failed request, like a transport or structured error.
//
//   - query: row count, columns and echoed rows must equal the reference
//     executor's (engine.Config.ReferenceExec) on an identically seeded
//     dataset. Reference answers are kept in the build directory, so they
//     are computed once per checkout.
//   - classroom: vendor-document narrations must equal the golden .txt next
//     to each .plan; every narration must match the POOL state the writing
//     client last set for its operator (read-your-writes through cache
//     invalidation); qa answers must equal the in-process answer.
//   - narrate-cold: every response is checked for shape, and an evenly
//     spaced sample per client is compared with the in-process narration
//     and fingerprint after the window.

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"

	"lantern/client"
	"lantern/internal/catalog"
	"lantern/internal/core"
	"lantern/internal/datasets"
	"lantern/internal/engine"
	"lantern/internal/pager"
	"lantern/internal/plan"
	"lantern/internal/pool"
	"lantern/internal/qa"
	"lantern/internal/service"
	"lantern/internal/sqlparser"
)

// answer is the reference result of one query.
type answer struct {
	Columns []string `json:"columns"`
	Count   int      `json:"count"`
	Ordered bool     `json:"ordered"`
	// Rows is the first echoMax rows of an ordered result, every row of an
	// unordered one (an echo may then be any of them).
	Rows [][]string `json:"rows"`
}

// echoMax is the max_rows every query request asks for.
const echoMax = 10

// samplesPerClient bounds the narrate-cold responses verified in process.
const samplesPerClient = 48

type oracle struct {
	w  *workload
	fx *fixture
	// eng is an in-process engine over the workload's dataset; nil when no
	// check needs one.
	eng *engine.Engine
	// classroom: texts[subject][mask] is the narration when bit c of mask
	// says client c's operator holds its revised description.
	texts   map[string]map[int]string
	answers map[string]string
	// query workloads, keyed by SQL.
	results map[string]*answer
}

// openEngine builds, in process, the engine the workload's daemon serves.
func openEngine(d dataset, dataDir string) (*engine.Engine, error) {
	if d.SF > 0 {
		cat, err := catalog.Open(dataDir, pager.Config{BufferPoolBytes: d.PoolMB << 20})
		if err != nil {
			return nil, err
		}
		return engine.NewWithCatalog(engine.DefaultConfig(), cat), nil
	}
	eng := engine.NewDefault()
	return eng, datasets.LoadTPCH(eng, d.Scale, dataSeed)
}

// cacheDir is where data derived from the TPC-H generator is kept between
// runs: the seeded data directory and the reference answers. Its name
// carries a hash of the generator's source, so a changed generator never
// meets stale data.
func cacheDir(root, build string) (string, error) {
	files, err := filepath.Glob(filepath.Join(root, "internal", "datasets", "*.go"))
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		raw, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		h.Write(raw)
	}
	return filepath.Join(build, fmt.Sprintf("tpch-seed%d-%x", dataSeed, h.Sum(nil)[:6])), nil
}

// ensureDataDir seeds the on-disk TPC-H directory once per cache directory
// and returns its path. Seeding goes to a temporary name renamed into
// place, so an interrupted seed is never mistaken for a finished one.
func ensureDataDir(d dataset, cache string) (string, error) {
	dir := filepath.Join(cache, fmt.Sprintf("sf%g", d.SF))
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	if err := seedDataDir(d, tmp); err != nil {
		return "", fmt.Errorf("seeding %s: %w", dir, err)
	}
	// The loader's catalog is garbage now; hand its memory back before a
	// daemon starts beside this process.
	debug.FreeOSMemory()
	return dir, os.Rename(tmp, dir)
}

func seedDataDir(d dataset, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cat, err := catalog.Open(dir, pager.Config{BufferPoolBytes: d.PoolMB << 20})
	if err != nil {
		return err
	}
	return datasets.LoadTPCHSF(engine.NewWithCatalog(engine.DefaultConfig(), cat), d.SF, dataSeed)
}

// newOracle prepares the expected answers for w. dataDir is the seeded
// directory of an on-disk dataset, cache the directory keeping reference
// answers between runs.
func newOracle(w *workload, fx *fixture, dataDir, cache string, clients int) (*oracle, error) {
	o := &oracle{w: w, fx: fx}
	var err error
	switch w.name {
	case "narrate-cold":
		o.eng, err = openEngine(w.data, dataDir)
	case "classroom":
		if o.eng, err = openEngine(w.data, dataDir); err == nil {
			err = o.prepareClassroom(clients)
		}
	default:
		err = o.prepareQueries(dataDir, cache)
	}
	return o, err
}

// explainTree plans sql on eng and parses its pg EXPLAIN document — the
// daemon's narrate path for SQL requests.
func explainTree(eng *engine.Engine, sql string) (*plan.Node, error) {
	tree, _, err := plan.ExplainAndParse("pg", func(format string) (string, error) {
		r, err := eng.Exec(fmt.Sprintf("EXPLAIN (FORMAT %s) %s", format, sql))
		if err != nil {
			return "", err
		}
		return r.Plan, nil
	})
	return tree, err
}

func (o *oracle) prepareClassroom(clients int) error {
	trees := make(map[string]*plan.Node)
	for _, s := range o.fx.subjects {
		tree, err := explainTree(o.eng, s.SQL)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		trees["sql:"+s.Name] = tree
	}
	for _, d := range o.fx.docs {
		tree, err := plan.Parse(d.Dialect, d.Doc)
		if err != nil {
			return fmt.Errorf("%s: %w", d.Key, err)
		}
		trees["doc:"+d.Key] = tree
	}
	o.texts = make(map[string]map[int]string)
	for mask := 0; mask < 1<<clients; mask++ {
		store := pool.NewSeededStore()
		for c := 0; c < clients; c++ {
			if mask&(1<<c) != 0 {
				if _, err := store.Exec(poolUpdate(mutableOps[c].name, mutableOps[c].revised)); err != nil {
					return err
				}
			}
		}
		rl := core.NewRuleLantern(store)
		for key, tree := range trees {
			nar, err := rl.Narrate(tree)
			if err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
			if o.texts[key] == nil {
				o.texts[key] = make(map[int]string)
			}
			o.texts[key][mask] = nar.Text()
		}
	}
	// The seed-state narration of every vendor document must be its golden
	// file; the check then holds the daemon to the golden text.
	for _, d := range o.fx.docs {
		if got := o.texts["doc:"+d.Key][0]; got != d.Golden {
			return fmt.Errorf("oracle: in-process narration of %s differs from its golden file", d.Key)
		}
	}
	o.answers = make(map[string]string)
	store := pool.NewSeededStore()
	for _, s := range o.fx.subjects {
		a, err := qa.New(store, trees["sql:"+s.Name])
		if err != nil {
			return err
		}
		for _, q := range o.fx.questions {
			ans, err := a.Answer(q)
			if err != nil {
				return fmt.Errorf("qa %s %q: %w", s.Name, q, err)
			}
			o.answers["qa:"+s.Name+"|"+q] = ans
		}
	}
	return nil
}

// prepareQueries loads the reference-answer memo and computes what it
// lacks with the reference executor.
func (o *oracle) prepareQueries(dataDir, cache string) error {
	data := fmt.Sprintf("scale%g", o.w.data.Scale)
	if o.w.data.SF > 0 {
		data = fmt.Sprintf("sf%g", o.w.data.SF)
	}
	memo := filepath.Join(cache, fmt.Sprintf("%s-%s.json", o.w.name, data))
	o.results = make(map[string]*answer)
	if raw, err := os.ReadFile(memo); err == nil {
		if err := json.Unmarshal(raw, &o.results); err != nil {
			return fmt.Errorf("reading %s: %w", memo, err)
		}
	}
	var missing []string
	for _, g := range o.fx.groups {
		for _, sql := range g.sqls {
			if o.results[sql] == nil {
				missing = append(missing, sql)
			}
		}
	}
	if len(missing) == 0 {
		return nil
	}
	if err := o.referenceAnswers(dataDir, missing); err != nil {
		return err
	}
	debug.FreeOSMemory()
	raw, err := json.Marshal(o.results)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(memo), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(memo+".tmp", raw, 0o644); err != nil {
		return err
	}
	return os.Rename(memo+".tmp", memo)
}

// referenceAnswers runs sqls through the reference executor on one
// session per CPU: the materializing executor takes minutes on a bank.
func (o *oracle) referenceAnswers(dataDir string, sqls []string) error {
	eng, err := openEngine(o.w.data, dataDir)
	if err != nil {
		return err
	}
	answers := make([]*answer, len(sqls))
	errs := make([]error, len(sqls))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ref := engine.NewWithCatalog(engine.DefaultConfig(), eng.Cat)
			ref.Cfg.ReferenceExec = true
			for i := range next {
				answers[i], errs[i] = referenceAnswer(ref, sqls[i])
			}
		}()
	}
	for i := range sqls {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, sql := range sqls {
		if errs[i] != nil {
			return fmt.Errorf("reference answer for %q: %w", sql, errs[i])
		}
		o.results[sql] = answers[i]
	}
	return nil
}

func referenceAnswer(ref *engine.Engine, sql string) (*answer, error) {
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	res, err := ref.Exec(sql)
	if err != nil {
		return nil, err
	}
	a := &answer{Columns: res.Columns, Count: len(res.Rows), Ordered: len(sel.OrderBy) > 0}
	for i, r := range res.Rows {
		if a.Ordered && i == echoMax {
			break
		}
		row := make([]string, len(r))
		for j, d := range r {
			row[j] = d.String()
		}
		a.Rows = append(a.Rows, row)
	}
	return a, nil
}

// sample is one narrate-cold response kept for in-process verification.
type sample struct {
	sql, text, fingerprint string
}

// checker is one client's view of the oracle: it knows the POOL state of
// the operator this client writes, and keeps its narrate-cold samples.
type checker struct {
	o       *oracle
	c       int
	revised bool
	samples []sample
}

// check judges one reply; measured says whether it falls in the window.
func (k *checker) check(req request, resp *client.Response, err error, measured bool) error {
	if err != nil {
		return err
	}
	switch req.Op {
	case "narrate":
		n := resp.Narrate
		if n == nil || n.Text == "" || len(n.Steps) == 0 || len(n.Fingerprint) != 64 {
			return errors.New("narrate: empty or malformed narration")
		}
		if k.o.w.name == "narrate-cold" {
			if measured {
				k.samples = append(k.samples, sample{req.SQL, n.Text, n.Fingerprint})
			}
			return nil
		}
		return k.checkText(req.Key, n.Text)
	case "qa":
		if resp.QA == nil || resp.QA.Answer != k.o.answers[req.Key] {
			return fmt.Errorf("qa %s: wrong answer", req.Key)
		}
	case "pool":
		if resp.Pool == nil || resp.Pool.Affected < 1 {
			return fmt.Errorf("pool %s: no operator updated", req.Key)
		}
		k.revised = req.PoolState
	case "query":
		return checkQuery(k.o.results[req.Key], resp.Query)
	}
	return nil
}

// checkText accepts the narration of subject key under any POOL state
// consistent with what this client wrote last; the other clients' writes
// race with this request, so either state of their operators is right.
func (k *checker) checkText(key, text string) error {
	own := 0
	if k.revised {
		own = 1
	}
	for mask, want := range k.o.texts[key] {
		if (mask>>k.c)&1 == own && text == want {
			return nil
		}
	}
	if k.revised {
		return fmt.Errorf("narrate %s: text does not carry this client's POOL write", key)
	}
	return fmt.Errorf("narrate %s: text differs from the expected narration", key)
}

func checkQuery(want *answer, got *service.QueryResponse) error {
	switch {
	case want == nil:
		return errors.New("query: no reference answer")
	case got == nil:
		return errors.New("query: empty response")
	case got.RowCount != want.Count:
		return fmt.Errorf("query: %d rows, reference %d", got.RowCount, want.Count)
	case !equalStrings(got.Columns, want.Columns):
		return fmt.Errorf("query: columns %v, reference %v", got.Columns, want.Columns)
	case len(got.Rows) != min(want.Count, echoMax):
		return fmt.Errorf("query: echoed %d rows, want %d", len(got.Rows), min(want.Count, echoMax))
	}
	if want.Ordered {
		for i, row := range got.Rows {
			if !sameRow(row, want.Rows[i]) {
				return fmt.Errorf("query: row %d is %v, reference %v", i, row, want.Rows[i])
			}
		}
		return nil
	}
	used := make([]bool, len(want.Rows))
	for _, row := range got.Rows {
		found := false
		for j, w := range want.Rows {
			if !used[j] && sameRow(row, w) {
				used[j], found = true, true
				break
			}
		}
		if !found {
			return fmt.Errorf("query: row %v is not in the reference result", row)
		}
	}
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameRow compares rendered rows, allowing float cells to differ in the
// last bits: parallel aggregation sums in another order than the serial
// reference.
func sameRow(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] == b[i] {
			continue
		}
		x, err1 := strconv.ParseFloat(a[i], 64)
		y, err2 := strconv.ParseFloat(b[i], 64)
		if err1 != nil || err2 != nil || math.Abs(x-y) > 1e-9*math.Max(math.Abs(x), math.Abs(y)) {
			return false
		}
	}
	return true
}

// verifySamples compares evenly spaced narrate-cold samples with the
// in-process narration and fingerprint; it returns how many it checked
// and the mismatches.
func (o *oracle) verifySamples(samples []sample) (int, []error) {
	if len(samples) == 0 {
		return 0, nil
	}
	rl := core.NewRuleLantern(pool.NewSeededStore())
	step := max(1, len(samples)/samplesPerClient)
	var errs []error
	n := 0
	for i := 0; i < len(samples); i += step {
		s := samples[i]
		n++
		tree, err := explainTree(o.eng, s.sql)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		fp, _ := service.PlanFingerprint(tree, service.Options{})
		nar, err := rl.Narrate(tree)
		switch {
		case err != nil:
			errs = append(errs, err)
		case fp.String() != s.fingerprint:
			errs = append(errs, fmt.Errorf("narrate: fingerprint differs from in-process plan for %.80q", s.sql))
		case nar.Text() != s.text:
			errs = append(errs, fmt.Errorf("narrate: text differs from in-process narration for %.80q", s.sql))
		}
	}
	return n, errs
}

func readFile(path string) (string, error) {
	raw, err := os.ReadFile(path)
	return string(raw), err
}
