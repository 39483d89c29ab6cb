package main

// workloads.go defines the four traffic mixes and the deterministic request
// generators behind them. Every request a client sends is a pure function of
// (workload, seed, client index, position in the sequence): the daemon only
// ever receives the generated requests.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"lantern/internal/datasets"
	"lantern/internal/plantest"
)

// request is one generated operation. Op is the v2 envelope op; Class
// groups requests for the per-class findings; Key names the expected
// answer in the workload's oracle.
type request struct {
	Op       string `json:"op"`
	Class    string `json:"class"`
	Key      string `json:"key,omitempty"`
	SQL      string `json:"sql,omitempty"`
	Plan     string `json:"plan,omitempty"`
	Dialect  string `json:"dialect,omitempty"`
	Question string `json:"question,omitempty"`
	Stmt     string `json:"stmt,omitempty"`
	MaxRows  int    `json:"max_rows,omitempty"`
	Stream   bool   `json:"stream,omitempty"`
	// PoolState is the mutated-operator state a pool request sets: true
	// for the revised description, false for the seed one.
	PoolState bool `json:"pool_state,omitempty"`
}

// dataset is what a workload's daemon serves and the budgets it serves it
// with: TPC-H generated in memory at Scale, or bulk-loaded at the official
// scale factor SF into a data directory served through a PoolMB buffer
// pool, with a CacheMB narration cache.
type dataset struct {
	Scale   float64 `json:"scale,omitempty"`
	SF      float64 `json:"sf,omitempty"`
	PoolMB  int64   `json:"buffer_pool_mb,omitempty"`
	CacheMB int64   `json:"cache_mb"`
}

// dataSeed is the TPC-H generation seed, the same for every workload: the
// benchmark seed varies the requests, never the data.
const dataSeed = 1

// bankSeed draws the fixed bank of query variants. The bank does not
// depend on the run seed so its reference answers are computed once per
// checkout; the run seed still decides which variant is sent when.
const bankSeed = 1

// bankVariants is the number of constant draws per template in a bank.
const bankVariants = 4

type workload struct {
	name string
	why  string
	data dataset
	// sensitivity is the share of a change in host speed that the
	// workload's time metrics follow: the slope of log throughput on log
	// host speed, fitted over fifty runs on the sizing machine (see "Host
	// speed" in README.md). Small-object narration code follows the
	// reference work one for one; scans gain less from a fast stretch.
	sensitivity float64
	// newGen returns client c's request sequence under seed.
	newGen func(fx *fixture, seed int64, c, clients int) func() request
}

// workloads lists the benchmark's traffic mixes, in run order. The why
// lines are what BENCHMARK.json and the README say about each.
func workloads() []*workload {
	return []*workload{
		{
			name: "narrate-cold",
			why:  "narrate of the 22 TPC-H templates with fresh constants, so parse, plan, EXPLAIN, fingerprint and narration run on nearly every request",
			// A run serves about 10k narrations of ~2 KB: too few to fill
			// the default 32 MiB cache, so peak memory would track
			// throughput. A 2 MiB budget is full within the warmup and then
			// churns, the steady state of a long-running daemon.
			data:        dataset{Scale: 0.05, CacheMB: 2},
			sensitivity: 1,
			newGen:      narrateColdGen,
		},
		{
			name:        "classroom",
			why:         "read-mostly teaching mix of repeated narrate and qa with 1% POOL writes, so the narration cache and its invalidation carry the load",
			data:        dataset{Scale: 0.05, CacheMB: 32},
			sensitivity: 1,
			newGen:      classroomGen,
		},
		{
			name:        "query-memory",
			why:         "execute-and-narrate of the 22 TPC-H templates on resident data, 25% streamed, so the executor dominates",
			data:        dataset{Scale: 0.5, CacheMB: 32},
			sensitivity: 0.6,
			newGen:      queryGen,
		},
		{
			name:        "query-disk",
			why:         "key windows, full scans and joins over a TPC-H SF 0.1 data directory about 6x a 16 MiB buffer pool, so pager decode, eviction and zone maps show",
			data:        dataset{SF: 0.1, PoolMB: 16, CacheMB: 32},
			sensitivity: 0.7,
			newGen:      queryGen,
		},
	}
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// clientRand is client c's private random stream under seed. Each
// workload's generator draws from it in a fixed order, so the sequence is
// reproducible per client whatever the other clients do.
func clientRand(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(c)*7_919 + 17))
}

// deck deals card indexes with exact proportions: each round holds card i
// counts[i] times, shuffled. Dealing from decks instead of independent
// draws keeps the mix of every run identical up to one round, which keeps
// throughput comparable across seeds.
type deck struct {
	r     *rand.Rand
	cards []int
	pos   int
}

func newDeck(r *rand.Rand, counts ...int) *deck {
	d := &deck{r: r}
	for i, n := range counts {
		for j := 0; j < n; j++ {
			d.cards = append(d.cards, i)
		}
	}
	d.pos = len(d.cards)
	return d
}

func (d *deck) next() int {
	if d.pos == len(d.cards) {
		d.r.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.pos = 0
	}
	d.pos++
	return d.cards[d.pos-1]
}

func uniformDeck(r *rand.Rand, n int) *deck {
	counts := make([]int, n)
	for i := range counts {
		counts[i] = 1
	}
	return newDeck(r, counts...)
}

// --- TPC-H templates and their substitution domains ------------------------

// param is one substitution point of a template: a finite domain of n
// values, value i replacing each literal in olds with news(i)[k].
type param struct {
	olds []string
	n    int
	news func(i int) []string
}

// template is a TPC-H query whose constants are redrawn per request.
type template struct {
	name   string
	sql    string
	params []param
}

// size is the number of distinct SQL texts the template renders.
func (t *template) size() int {
	n := 1
	for _, p := range t.params {
		n *= p.n
	}
	return n
}

// render decodes idx (mixed radix over the params) into SQL text.
func (t *template) render(idx int) string {
	sql := t.sql
	for _, p := range t.params {
		news := p.news(idx % p.n)
		idx /= p.n
		for k, old := range p.olds {
			if !strings.Contains(sql, old) {
				panic(fmt.Sprintf("template %s: literal %q not found", t.name, old))
			}
			sql = strings.ReplaceAll(sql, old, news[k])
		}
	}
	return sql
}

var (
	regions    = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	partTypes  = []string{"ECONOMY BRASS", "STANDARD BRASS", "ECONOMY COPPER", "PROMO STEEL", "SMALL STEEL", "MEDIUM TIN", "LARGE NICKEL", "PROMO COPPER"}
	typeWords  = []string{"BRASS", "COPPER", "STEEL", "TIN", "NICKEL"}
	containers = []string{"SM CASE", "SM BOX", "MED BOX", "LG BOX", "JUMBO PACK", "WRAP CASE"}
	shipModes  = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	statuses   = []string{"O", "F", "P"}
	flags      = []string{"R", "A", "N"}
)

func quoted(vals []string) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = "'" + v + "'"
	}
	return out
}

func nations() []string {
	out := make([]string, 25)
	for i := range out {
		out[i] = fmt.Sprintf("'NATION%02d'", i)
	}
	return out
}

func brands() []string {
	var out []string
	for a := 1; a <= 5; a++ {
		for b := 1; b <= 5; b++ {
			out = append(out, fmt.Sprintf("'Brand#%d%d'", a, b))
		}
	}
	return out
}

// pairs lists the unordered pairs of vals as "('a', 'b')" IN-lists.
func pairs(vals []string) []string {
	var out []string
	for i := range vals {
		for j := i + 1; j < len(vals); j++ {
			out = append(out, fmt.Sprintf("('%s', '%s')", vals[i], vals[j]))
		}
	}
	return out
}

func choice(old string, vals []string) param {
	return param{olds: []string{old}, n: len(vals), news: func(i int) []string { return []string{vals[i]} }}
}

func ints(old, format string, lo, hi, step int) param {
	return param{olds: []string{old}, n: (hi-lo)/step + 1, news: func(i int) []string {
		return []string{fmt.Sprintf(format, lo+i*step)}
	}}
}

func mustDay(s string) time.Time {
	t, err := time.Parse(time.DateOnly, s)
	if err != nil {
		panic(err)
	}
	return t
}

func dayCount(from, to string) int { return int(mustDay(to).Sub(mustDay(from)).Hours()/24) + 1 }

func dayAt(from string, i int) time.Time { return mustDay(from).AddDate(0, 0, i) }

func quoteDay(t time.Time) string { return "'" + t.Format(time.DateOnly) + "'" }

// days draws one day in [from, to]. Dates are day-granular — finer than
// the TPC-H month and year domains — so narrate-cold has enough distinct
// plans to keep the cache missing.
func days(old, from, to string) param {
	return param{olds: []string{old}, n: dayCount(from, to), news: func(i int) []string {
		return []string{quoteDay(dayAt(from, i))}
	}}
}

// dateRange draws a range start in [from, to] and ends it y years, m months and
// d days later, keeping the template's range length.
func dateRange(oldStart, oldEnd, from, to string, y, m, d int) param {
	return param{olds: []string{oldStart, oldEnd}, n: dayCount(from, to), news: func(i int) []string {
		start := dayAt(from, i)
		return []string{quoteDay(start), quoteDay(start.AddDate(y, m, d))}
	}}
}

// tpchParams are the substitution points of each TPC-H template. Where the
// adapted template lost its TPC-H parameter (Q2's type, Q13's comment
// words, Q21's nation) a filter on an existing column stands in for it.
func tpchParams() map[string][]param {
	return map[string][]param{
		"Q1": {days("'1998-09-02'", "1992-06-01", "1998-11-30")},
		"Q2": {choice("'EUROPE'", quoted(regions)), {olds: []string{"p.p_size = 15"}, n: 50 * len(typeWords), news: func(i int) []string {
			return []string{fmt.Sprintf("p.p_size = %d AND p.p_type LIKE '%%%s'", 1+i%50, typeWords[i/50])}
		}}},
		"Q3": {choice("'BUILDING'", quoted(segments)), days("'1995-03-15'", "1993-01-01", "1997-12-31")},
		"Q4": {dateRange("'1993-07-01'", "'1993-10-01'", "1993-01-01", "1997-10-01", 0, 3, 0)},
		"Q5": {choice("'ASIA'", quoted(regions)), dateRange("'1994-01-01'", "'1995-01-01'", "1993-01-01", "1997-12-31", 1, 0, 0)},
		"Q6": {
			dateRange("'1994-01-01'", "'1995-01-01'", "1993-01-01", "1997-12-31", 1, 0, 0),
			{olds: []string{"BETWEEN 0.05 AND 0.07"}, n: 8, news: func(i int) []string {
				return []string{fmt.Sprintf("BETWEEN 0.%02d AND 0.%02d", 1+i, 3+i)}
			}},
			ints("l_quantity < 24", "l_quantity < %d", 24, 25, 1),
		},
		"Q7": {dateRange("'1995-01-01'", "'1996-12-31'", "1992-01-01", "1995-12-31", 2, 0, -1)},
		"Q8": {
			choice("'AMERICA'", quoted(regions)),
			choice("'ECONOMY BRASS'", quoted(partTypes)),
			dateRange("'1995-01-01'", "'1996-12-31'", "1992-01-01", "1995-12-31", 2, 0, -1),
		},
		"Q9":  {ints("'%5%'", "'%%%d%%'", 0, 9999, 1)},
		"Q10": {dateRange("'1993-10-01'", "'1994-01-01'", "1993-01-01", "1995-12-31", 0, 3, 0), choice("l.l_returnflag = 'R'", prefixed("l.l_returnflag = ", quoted(flags)))},
		"Q11": {choice("'NATION07'", nations()), ints("ps.ps_availqty) > 100", "ps.ps_availqty) > %d", 100, 10000, 100)},
		"Q12": {choice("('MAIL', 'SHIP')", pairs(shipModes)), dateRange("'1994-01-01'", "'1995-01-01'", "1993-01-01", "1997-12-31", 1, 0, 0)},
		"Q13": {ints("ON c.c_custkey = o.o_custkey", "ON c.c_custkey = o.o_custkey AND o.o_totalprice > %d", 1000, 450000, 100)},
		"Q14": {dateRange("'1995-09-01'", "'1995-10-01'", "1993-01-01", "1997-12-31", 0, 1, 0)},
		"Q15": {dateRange("'1996-01-01'", "'1996-04-01'", "1993-01-01", "1997-10-01", 0, 3, 0)},
		"Q16": {choice("'Brand#45'", brands()), {olds: []string{"IN (1, 9, 14, 19, 23, 36, 45, 49)"}, n: 1000, news: func(i int) []string {
			sizes := rand.New(rand.NewSource(int64(i))).Perm(50)[:8]
			sort.Ints(sizes)
			parts := make([]string, len(sizes))
			for k, s := range sizes {
				parts[k] = fmt.Sprint(s + 1)
			}
			return []string{"IN (" + strings.Join(parts, ", ") + ")"}
		}}},
		"Q17": {choice("'Brand#23'", brands()), choice("'MED BOX'", quoted(containers)), ints("l.l_quantity < 10", "l.l_quantity < %d", 5, 15, 1)},
		"Q18": {ints("o.o_totalprice > 300000", "o.o_totalprice > %d", 250000, 350000, 500), ints("SUM(l.l_quantity) > 100", "SUM(l.l_quantity) > %d", 100, 150, 1)},
		"Q19": {
			choice("('SM CASE', 'SM BOX')", pairs(containers)),
			{olds: []string{"l.l_quantity BETWEEN 1 AND 11"}, n: 10, news: func(i int) []string {
				return []string{fmt.Sprintf("l.l_quantity BETWEEN %d AND %d", 1+i, 11+i)}
			}},
			ints("p.p_size BETWEEN 1 AND 5", "p.p_size BETWEEN 1 AND %d", 5, 15, 1),
		},
		"Q20": {choice("'NATION03'", nations()), ints("ps_availqty > 5000", "ps_availqty > %d", 1000, 8990, 10)},
		"Q21": {
			choice("o.o_orderstatus = 'F'", prefixed("o.o_orderstatus = ", quoted(statuses))),
			{olds: []string{"AND s.s_nationkey = n.n_nationkey"}, n: 25 * dayCount("1992-01-01", "1996-12-31"), news: func(i int) []string {
				return []string{fmt.Sprintf("AND s.s_nationkey = n.n_nationkey AND n.n_name = 'NATION%02d' AND l.l_shipdate >= %s",
					i%25, quoteDay(dayAt("1992-01-01", i/25)))}
			}},
		},
		"Q22": {ints("c.c_acctbal > 0", "c.c_acctbal > %d", 0, 9999, 1)},
	}
}

func prefixed(prefix string, vals []string) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = prefix + v
	}
	return out
}

// tpchTemplates returns the 22 TPC-H queries in order with their
// substitution points.
func tpchTemplates() []*template {
	params := tpchParams()
	var out []*template
	for _, w := range datasets.TPCHWorkload() {
		out = append(out, &template{name: w.Name, sql: w.SQL, params: params[w.Name]})
	}
	return out
}

// --- fixture: the inputs generators draw from ------------------------------

// vendorDoc is one of the golden-corpus plan documents.
type vendorDoc struct {
	Key     string // "<dialect>/<name>"
	Dialect string
	Doc     string
	Golden  string // the checked-in narration (<name>.txt)
}

// group is a set of interchangeable query variants of one class.
type group struct {
	class string
	sqls  []string
}

// fixture is everything a workload's generators draw from. It needs no
// engine: building it is cheap and deterministic.
type fixture struct {
	templates []*template // narrate-cold
	subjects  []datasets.Workload
	docs      []vendorDoc
	questions []string
	// Query workloads: the bank of variant groups, how many cards of each
	// group a deck round holds, and how many of every four requests stream.
	groups  []group
	weights []int
	streams int
}

// qaQuestions are question shapes qa.Answer supports on every plan and
// whose answers do not depend on the operator descriptions POOL writes
// change, so each has one expected answer per subject.
var qaQuestions = []string{
	"how many steps are there?",
	"which tables are scanned?",
	"how many rows are in the final result?",
	"what is a hash join?",
	"what is a sequential scan?",
	"what is an index scan?",
	"what is a nested loop join?",
}

// mutableOps are the pg operators the classroom's POOL writes toggle, one
// per client so each client knows the state of the operator it writes.
// Both appear in a minority of the 22 plans, which keeps the invalidation
// rate near what SME maintenance would cause.
var mutableOps = [...]struct{ name, seed, revised string }{
	{"aggregate", "perform aggregate on $R1$ and filtering on $cond$", "compute the aggregate over $R1$ and filtering on $cond$"},
	{"limit", "keep only the first requested rows of $R1$", "retain only the first requested rows of $R1$"},
}

// maxClients bounds the client count by the operators available to toggle.
const maxClients = len(mutableOps)

func newFixture(w *workload) (*fixture, error) {
	fx := &fixture{}
	switch w.name {
	case "narrate-cold":
		fx.templates = tpchTemplates()
	case "classroom":
		fx.subjects = datasets.TPCHWorkload()
		fx.questions = qaQuestions
		entries, err := plantest.LoadEntries()
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			golden, err := readFile(e.GoldenPath(".txt"))
			if err != nil {
				return nil, err
			}
			fx.docs = append(fx.docs, vendorDoc{Key: e.Dialect + "/" + e.Name, Dialect: e.Dialect, Doc: e.Doc, Golden: golden})
		}
	case "query-memory":
		r := rand.New(rand.NewSource(bankSeed))
		for _, t := range tpchTemplates() {
			fx.groups = append(fx.groups, group{class: "query", sqls: bank(r, t)})
			fx.weights = append(fx.weights, 1)
		}
		fx.streams = 1
	case "query-disk":
		fx.groups, fx.weights = diskBank(w.data.SF)
	}
	return fx, nil
}

// bank draws bankVariants distinct renderings of t.
func bank(r *rand.Rand, t *template) []string {
	seen := make(map[int]bool)
	var out []string
	for len(out) < bankVariants {
		idx := r.Intn(t.size())
		if !seen[idx] {
			seen[idx] = true
			out = append(out, t.render(idx))
		}
	}
	return out
}

// diskBank builds query-disk's variant groups and deck weights: 8 of 13
// requests are key windows (each window written both with BETWEEN and with
// >= AND <=, the pair whose zone-map pruning differs), 3 are full-scan
// aggregates in the style of Q1, Q6 and Q12, and 2 are Q3 and Q10 joins.
// That is 62/23/15%, the nearest split to 60/25/15% in a deck small enough
// that a window deals it many times over: a client answers about a hundred
// requests a window, and a partial round of a larger deck would leave the
// window's share of the costly scans to chance.
func diskBank(sf float64) ([]group, []int) {
	r := rand.New(rand.NewSource(bankSeed))
	orders := int(1_500_000 * sf)
	shapes := []struct{ table, sql string }{
		{"lineitem", "SELECT COUNT(*) AS n, SUM(l_quantity) AS qty, SUM(l_extendedprice) AS price FROM lineitem WHERE %s"},
		{"orders", "SELECT o_orderkey, o_custkey, o_totalprice FROM orders WHERE %s ORDER BY o_orderkey"},
	}
	var groups []group
	var weights []int
	for _, sh := range shapes {
		col := sh.table[:1] + "_orderkey"
		var between, rangeForm []string
		for v := 0; v < bankVariants; v++ {
			width := orders/100 + r.Intn(orders/100+1)
			lo := 1 + r.Intn(orders-width)
			hi := lo + width - 1
			between = append(between, fmt.Sprintf(sh.sql, fmt.Sprintf("%s BETWEEN %d AND %d", col, lo, hi)))
			rangeForm = append(rangeForm, fmt.Sprintf(sh.sql, fmt.Sprintf("%s >= %d AND %s <= %d", col, lo, col, hi)))
		}
		groups = append(groups, group{"window-between", between}, group{"window-range", rangeForm})
		weights = append(weights, 2, 2)
	}
	byName := make(map[string]*template)
	for _, t := range tpchTemplates() {
		byName[t.name] = t
	}
	for _, q := range []string{"Q1", "Q6", "Q12"} {
		groups = append(groups, group{"scan", bank(r, byName[q])})
		weights = append(weights, 1)
	}
	for _, q := range []string{"Q3", "Q10"} {
		groups = append(groups, group{"join", bank(r, byName[q])})
		weights = append(weights, 1)
	}
	return groups, weights
}

// --- generators ------------------------------------------------------------

// narrateColdGen deals templates round-robin and draws each template's
// constants without replacement from this client's share of the domain
// (indexes congruent to c modulo clients), so no two requests of a run
// repeat a plan until a share runs out.
func narrateColdGen(fx *fixture, seed int64, c, clients int) func() request {
	r := clientRand(seed, c)
	d := uniformDeck(r, len(fx.templates))
	used := make([][]bool, len(fx.templates))
	left := make([]int, len(fx.templates))
	return func() request {
		ti := d.next()
		t := fx.templates[ti]
		share := t.size() / clients
		if left[ti] == 0 {
			used[ti], left[ti] = make([]bool, share), share
		}
		k := r.Intn(share)
		for used[ti][k] {
			k = (k + 1) % share
		}
		used[ti][k] = true
		left[ti]--
		return request{Op: "narrate", Class: "narrate-sql", SQL: t.render(k*clients + c)}
	}
}

// classroomGen deals 60 narrates of the unmodified TPC-H queries (Zipf
// s=1.1 over Q1..Q22), 20 narrates of vendor plan documents, 19 qa
// requests and one POOL write per hundred requests.
func classroomGen(fx *fixture, seed int64, c, clients int) func() request {
	r := clientRand(seed, c)
	d := newDeck(r, 60, 20, 19, 1)
	zipf := rand.NewZipf(r, 1.1, 1, uint64(len(fx.subjects)-1))
	op := mutableOps[c]
	revised := false
	return func() request {
		switch d.next() {
		case 0:
			s := fx.subjects[zipf.Uint64()]
			return request{Op: "narrate", Class: "narrate-sql", Key: "sql:" + s.Name, SQL: s.SQL}
		case 1:
			doc := fx.docs[r.Intn(len(fx.docs))]
			return request{Op: "narrate", Class: "narrate-doc", Key: "doc:" + doc.Key, Plan: doc.Doc, Dialect: doc.Dialect}
		case 2:
			s := fx.subjects[zipf.Uint64()]
			q := fx.questions[r.Intn(len(fx.questions))]
			return request{Op: "qa", Class: "qa", Key: "qa:" + s.Name + "|" + q, SQL: s.SQL, Question: q}
		default:
			revised = !revised
			desc := op.seed
			if revised {
				desc = op.revised
			}
			return request{Op: "pool", Class: "pool", Key: "pool:" + op.name, PoolState: revised,
				Stmt: poolUpdate(op.name, desc)}
		}
	}
}

func poolUpdate(op, desc string) string {
	return fmt.Sprintf("UPDATE pg SET desc = '%s' WHERE name = '%s'", desc, op)
}

// queryGen deals the workload's variant groups by weight and each group's
// variants in turn; streams of every four requests go through
// ?stream=ndjson. Every request echoes at most ten rows. Variants differ
// in cost several times over, so dealing them too keeps the mix of every
// window the same whatever the seed.
func queryGen(fx *fixture, seed int64, c, clients int) func() request {
	r := clientRand(seed, c)
	d := newDeck(r, fx.weights...)
	variants := make([]*deck, len(fx.groups))
	for i, g := range fx.groups {
		variants[i] = uniformDeck(r, len(g.sqls))
	}
	st := newDeck(r, 4-fx.streams, fx.streams)
	return func() request {
		i := d.next()
		g := fx.groups[i]
		sql := g.sqls[variants[i].next()]
		return request{Op: "query", Class: g.class, Key: sql, SQL: sql, MaxRows: 10, Stream: st.next() == 1}
	}
}
