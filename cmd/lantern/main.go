// Command lantern narrates SQL query execution plans in natural language.
//
// It loads one of the bundled datasets into the substrate engine, plans the
// given query, serializes the plan in the chosen vendor dialect
// (PostgreSQL-style JSON, SQL-Server-style XML, or MySQL-style
// EXPLAIN FORMAT=JSON), parses it back through the dialect registry, and
// runs RULE-LANTERN (and optionally NEURAL-LANTERN) over it:
//
//	lantern -db tpch "SELECT c_name FROM customer WHERE c_custkey = 7"
//	lantern -db tpch -source sqlserver -show-plan "SELECT ..."
//	lantern -db tpch -source mysql "SELECT ..."
//	lantern -db imdb -mode neural "SELECT ..."
//
// With -exec the query is executed with per-operator instrumentation and
// narrated with its actuals (actual row counts, optimizer mis-estimates).
// The exec path consumes the serving API through the Go client SDK
// (lantern/client): by default the CLI boots an in-process daemon over the
// loaded dataset and speaks the v2 envelope to it loopback — the exact
// pipeline a production deployment serves — and with -remote it targets a
// running lanternd instead, loading no data locally:
//
//	lantern -db tpch -exec "SELECT c.c_name, SUM(o.o_totalprice) FROM customer c, orders o WHERE c.c_custkey = o.o_custkey GROUP BY c.c_name"
//	lantern -remote http://localhost:8080 -exec "SELECT ..."
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"lantern/client"
	"lantern/internal/catalog"
	"lantern/internal/core"
	"lantern/internal/datasets"
	"lantern/internal/engine"
	"lantern/internal/httpapi"
	"lantern/internal/lot"
	"lantern/internal/neural"
	"lantern/internal/pager"
	"lantern/internal/plan"
	"lantern/internal/pool"
	"lantern/internal/qa"
	"lantern/internal/service"
	"lantern/internal/sqlparser"
)

func main() {
	db := flag.String("db", "tpch", "dataset to load: tpch, sdss, imdb")
	scale := flag.Float64("scale", 0.05, "dataset scale factor")
	source := flag.String("source", "pg", "plan dialect: "+strings.Join(plan.Dialects(), ", "))
	mode := flag.String("mode", "rule", "narration mode: rule, neural, auto (frequency switching)")
	showPlan := flag.Bool("show-plan", false, "also print the raw serialized plan")
	execQuery := flag.Bool("exec", false, "execute the query through the serving API (client SDK) and narrate its actuals")
	remote := flag.String("remote", "", "base URL of a running lanternd (e.g. http://localhost:8080); -exec then targets it instead of an in-process daemon")
	treeView := flag.Bool("tree", false, "present as NL-annotated visual tree instead of document text")
	trace := flag.Bool("trace", false, "with -exec: print the request's span tree (pipeline stages and per-operator timings)")
	ask := flag.String("ask", "", "ask a question about the plan instead of narrating it (estimate-based, even with -exec)")
	seed := flag.Int64("seed", 1, "data generation seed")
	dataDir := flag.String("data-dir", "", "persist tables to this directory (spilled segments served through the buffer pool); a previously seeded directory is recovered without reloading")
	flag.Parse()

	query := strings.Join(flag.Args(), " ")
	if strings.TrimSpace(query) == "" {
		// Read from stdin.
		data, err := bufio.NewReader(os.Stdin).ReadString(0)
		if err != nil && len(data) == 0 {
			fatal(fmt.Errorf("no query given (pass as argument or on stdin)"))
		}
		query = data
	}

	// The exec path speaks the v2 envelope through the SDK — against a
	// remote daemon, or an in-process one booted over the local dataset.
	// The serving pipeline narrates rule-based and never echoes raw plans,
	// so the flags that need local machinery are rejected rather than
	// silently ignored.
	if *execQuery {
		if *mode != "rule" {
			fatal(fmt.Errorf("-exec narrates through the serving API, which is rule-based; -mode %s is only available without -exec", *mode))
		}
		if *showPlan {
			fatal(fmt.Errorf("-show-plan is not available with -exec (the serving API returns narrations, not raw plans)"))
		}
		// -exec always travels the native engine↔plan bridge; a non-native
		// dialect request would be silently dropped, so reject it. The flag
		// default "pg" means "unset" here.
		if *source != "pg" && *source != "native" {
			fatal(fmt.Errorf("-exec implies -source native; -source %s is only available without -exec", *source))
		}
		c, shutdown := sdkClient(*remote, *db, *scale, *seed, *dataDir)
		defer shutdown()
		runExec(c, query, *treeView, *ask, *trace)
		return
	}
	if *remote != "" {
		fatal(fmt.Errorf("-remote requires -exec (the local paths need no daemon)"))
	}
	if *trace {
		fatal(fmt.Errorf("-trace requires -exec (only served requests are traced)"))
	}

	eng := loadEngine(*db, *scale, *seed, *dataDir)
	store := pool.NewSeededStore()
	tree, raw, err := explainTree(eng, *source, query)
	if err != nil {
		fatal(err)
	}
	if *showPlan {
		fmt.Println(raw)
	}

	if *ask != "" {
		answerer, err := qa.New(store, tree)
		if err != nil {
			fatal(err)
		}
		answer, err := answerer.Answer(*ask)
		if err != nil {
			fatal(err)
		}
		fmt.Println(answer)
		return
	}

	rule := core.NewRuleLantern(store)
	var nar *core.Narration
	switch *mode {
	case "rule":
		nar, err = rule.Narrate(tree)
	case "neural", "auto":
		nl, terr := trainQuick(eng, store, *db, *seed)
		if terr != nil {
			fatal(terr)
		}
		if *mode == "neural" {
			nar, err = nl.Narrate(tree)
		} else {
			l := core.NewLantern(rule, nl)
			nar, err = l.Narrate(tree)
		}
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	if err != nil {
		fatal(err)
	}

	if *treeView {
		lt, err := lot.Build(tree, store)
		if err != nil {
			fatal(err)
		}
		fmt.Print(core.PresentTree(lt, nar))
		return
	}
	fmt.Print(nar.Text())
}

// runExec drives the execute-and-narrate loop through the client SDK.
// With trace the envelope asks for debug=trace and the span tree — the
// pipeline stages plus the per-operator actuals — prints to stderr.
func runExec(c *client.Client, query string, treeView bool, ask string, trace bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	debug := ""
	if trace {
		debug = client.DebugTrace
	}
	if ask != "" {
		resp, err := c.Do(ctx, &client.Request{Op: client.OpQA, SQL: query, Question: ask, Debug: debug})
		if err != nil {
			fatal(err)
		}
		resp.Trace.WriteTree(os.Stderr)
		fmt.Println(resp.QA.Answer)
		return
	}
	opts := client.Options{}
	if treeView {
		opts.Presentation = service.PresentTree
	}
	resp, err := c.Do(ctx, &client.Request{Op: client.OpQuery, SQL: query, MaxRows: -1, Options: opts, Debug: debug})
	if err != nil {
		fatal(err)
	}
	q := resp.Query
	fmt.Fprintf(os.Stderr, "executed: %d rows in %.3f ms\n", q.RowCount, q.ElapsedMs)
	resp.Trace.WriteTree(os.Stderr)
	fmt.Print(q.Text)
	if !strings.HasSuffix(q.Text, "\n") {
		fmt.Println()
	}
}

// sdkClient returns a client against the remote daemon, or boots an
// in-process one on a loopback listener over the locally loaded dataset.
func sdkClient(remote, db string, scale float64, seed int64, dataDir string) (*client.Client, func()) {
	if remote != "" {
		return client.New(remote), func() {}
	}
	eng := loadEngine(db, scale, seed, dataDir)
	store := pool.NewSeededStore()
	srv := service.NewServer(eng, store, service.Config{RequestTimeout: 5 * time.Minute})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: httpapi.New(srv, store, httpapi.Config{Dataset: db})}
	go httpSrv.Serve(ln)
	shutdown := func() {
		httpSrv.Close()
		srv.Close()
	}
	return client.New("http://" + ln.Addr().String()), shutdown
}

func loadEngine(db string, scale float64, seed int64, dataDir string) *engine.Engine {
	eng := engine.NewDefault()
	if dataDir != "" {
		cat, err := catalog.Open(dataDir, pager.Config{})
		if err != nil {
			fatal(err)
		}
		eng = engine.NewWithCatalog(engine.DefaultConfig(), cat)
		if len(cat.TableNames()) > 0 {
			return eng // recovered a seeded directory; don't reload
		}
	}
	var err error
	switch db {
	case "tpch":
		err = datasets.LoadTPCH(eng, scale, seed)
	case "sdss":
		err = datasets.LoadSDSS(eng, scale, seed)
	case "imdb":
		err = datasets.LoadIMDB(eng, scale, seed)
	default:
		err = fmt.Errorf("unknown dataset %q", db)
	}
	if err != nil {
		fatal(err)
	}
	return eng
}

// explainTree plans the query and round-trips it through the dialect's
// serialization, exactly as LANTERN consumes plans from a real RDBMS.
func explainTree(eng *engine.Engine, source, query string) (*plan.Node, string, error) {
	sel, err := sqlparser.ParseSelect(query)
	if err != nil {
		return nil, "", err
	}
	return plan.ExplainAndParse(source, func(format string) (string, error) {
		return eng.Explain(sel, format)
	})
}

// trainQuick trains a small NEURAL-LANTERN on workload queries of the
// loaded dataset (a CLI convenience; cmd/experiments does the full runs).
func trainQuick(eng *engine.Engine, store *pool.Store, db string, seed int64) (*neural.NeuralLantern, error) {
	var workload []datasets.Workload
	switch db {
	case "tpch":
		workload = datasets.TPCHWorkload()
	case "sdss":
		workload = datasets.SDSSWorkload()
	default:
		workload = datasets.TPCHWorkload() // imdb trains on tpch shapes
	}
	var trees []*plan.Node
	for _, w := range workload {
		t, _, err := explainTree(eng, "pg", w.SQL)
		if err != nil {
			continue // workload queries of another dataset may not apply
		}
		trees = append(trees, t)
	}
	ds, err := neural.NewBuilder(store).Build(trees)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "training NEURAL-LANTERN (quick mode)...")
	return neural.Train(store, ds, neural.TrainConfig{
		Hidden: 32, EncEmbDim: 8, DecEmbDim: 12,
		Epochs: 25, BatchSize: 4, LR: 0.3, Seed: seed,
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lantern:", err)
	os.Exit(1)
}
