// Package textgen implements the random SQL query generator the paper
// adopts from Kipf et al. [31] ("Learned Cardinalities") to produce
// training and test workloads: given a schema and a database instance, it
// samples join subgraphs along the foreign-key graph, filter predicates
// drawn from actual column values, and optional aggregation — "these
// queries contain aggregation, projection, as well as various filtering
// and join predicates" (§6.2).
package textgen

import (
	"fmt"
	"math/rand"
	"strings"

	"lantern/internal/datasets"
	"lantern/internal/datum"
	"lantern/internal/engine"
)

// Config bounds the generated queries.
type Config struct {
	MaxJoins      int     // maximum number of join edges (tables - 1)
	MaxPredicates int     // maximum filter predicates
	AggProb       float64 // probability of producing an aggregate query
	GroupProb     float64 // probability an aggregate query has GROUP BY
	OrderProb     float64 // probability of ORDER BY ... LIMIT
}

// DefaultConfig matches the shapes of the Kipf generator's workloads.
func DefaultConfig() Config {
	return Config{MaxJoins: 3, MaxPredicates: 3, AggProb: 0.5, GroupProb: 0.6, OrderProb: 0.3}
}

// Generator produces random queries over one loaded dataset.
type Generator struct {
	eng *engine.Engine
	fks []datasets.FK
	cfg Config
	rng *rand.Rand
	// adjacency over tables via FK edges
	adj map[string][]datasets.FK
}

// New creates a generator. The engine must already hold the dataset the
// foreign keys describe.
func New(e *engine.Engine, fks []datasets.FK, cfg Config, seed int64) *Generator {
	g := &Generator{eng: e, fks: fks, cfg: cfg, rng: rand.New(rand.NewSource(seed)),
		adj: make(map[string][]datasets.FK)}
	for _, fk := range fks {
		g.adj[fk.ChildTable] = append(g.adj[fk.ChildTable], fk)
		g.adj[fk.ParentTable] = append(g.adj[fk.ParentTable], fk)
	}
	return g
}

// Queries generates n SQL strings.
func (g *Generator) Queries(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = g.Query()
	}
	return out
}

// Query generates one SQL string. Every generated query parses, plans, and
// executes on the source engine (guaranteed by construction and verified by
// the test suite).
func (g *Generator) Query() string {
	tables, joins := g.sampleJoinTree()
	alias := make(map[string]string, len(tables))
	for i, t := range tables {
		alias[t] = fmt.Sprintf("t%d", i)
	}
	var from []string
	for _, t := range tables {
		from = append(from, t+" "+alias[t])
	}
	var preds []string
	for _, j := range joins {
		preds = append(preds, fmt.Sprintf("%s.%s = %s.%s",
			alias[j.ChildTable], j.ChildColumn, alias[j.ParentTable], j.ParentColumn))
	}
	nPred := g.rng.Intn(g.cfg.MaxPredicates + 1)
	for i := 0; i < nPred; i++ {
		if p := g.samplePredicate(tables, alias); p != "" {
			preds = append(preds, p)
		}
	}

	var sb strings.Builder
	sb.WriteString("SELECT ")
	groupCols, aggText := g.sampleProjection(tables, alias, &sb)
	sb.WriteString(" FROM ")
	sb.WriteString(strings.Join(from, ", "))
	if len(preds) > 0 {
		sb.WriteString(" WHERE ")
		sb.WriteString(strings.Join(preds, " AND "))
	}
	if len(groupCols) > 0 {
		sb.WriteString(" GROUP BY ")
		sb.WriteString(strings.Join(groupCols, ", "))
		if aggText != "" && g.rng.Float64() < 0.4 {
			sb.WriteString(fmt.Sprintf(" HAVING %s > %d", aggText, g.rng.Intn(50)))
		}
	}
	if g.rng.Float64() < g.cfg.OrderProb {
		target := "1"
		switch {
		case len(groupCols) > 0:
			target = groupCols[g.rng.Intn(len(groupCols))]
		case aggText == "":
			if c := g.sampleColumn(tables, alias, false); c != "" {
				target = c
			}
		default:
			target = aggText
		}
		if target != "1" {
			sb.WriteString(" ORDER BY " + target)
			if g.rng.Float64() < 0.5 {
				sb.WriteString(" DESC")
			}
			sb.WriteString(fmt.Sprintf(" LIMIT %d", 1+g.rng.Intn(100)))
		}
	}
	return sb.String()
}

// sampleJoinTree random-walks the FK graph from a random start table.
func (g *Generator) sampleJoinTree() ([]string, []datasets.FK) {
	allTables := make([]string, 0, len(g.adj))
	for t := range g.adj {
		allTables = append(allTables, t)
	}
	if len(allTables) == 0 {
		allTables = g.eng.Cat.TableNames()
	}
	sortStrings(allTables)
	start := allTables[g.rng.Intn(len(allTables))]
	tables := []string{start}
	inSet := map[string]bool{start: true}
	var joins []datasets.FK
	target := g.rng.Intn(g.cfg.MaxJoins + 1)
	for len(joins) < target {
		// Pick an expansion edge from any included table.
		var candidates []datasets.FK
		for _, t := range tables {
			for _, fk := range g.adj[t] {
				other := fk.ParentTable
				if other == t {
					other = fk.ChildTable
				}
				if fk.ChildTable == t && !inSet[fk.ParentTable] {
					candidates = append(candidates, fk)
				} else if fk.ParentTable == t && !inSet[fk.ChildTable] {
					candidates = append(candidates, fk)
				}
				_ = other
			}
		}
		if len(candidates) == 0 {
			break
		}
		fk := candidates[g.rng.Intn(len(candidates))]
		next := fk.ChildTable
		if inSet[next] {
			next = fk.ParentTable
		}
		inSet[next] = true
		tables = append(tables, next)
		joins = append(joins, fk)
	}
	return tables, joins
}

// samplePredicate draws a filter over an actual value from the data, so
// predicates are never trivially empty (the Kipf generator's key property).
func (g *Generator) samplePredicate(tables []string, alias map[string]string) string {
	table := tables[g.rng.Intn(len(tables))]
	t, err := g.eng.Cat.Table(table)
	if err != nil {
		return ""
	}
	snap := t.Snapshot()
	if snap.NumRows() == 0 {
		return ""
	}
	col := t.Columns[g.rng.Intn(len(t.Columns))]
	row, err := snap.FetchRow(g.rng.Intn(snap.NumRows()))
	if err != nil {
		return ""
	}
	v := row[t.ColumnIndex(col.Name)]
	if v.IsNull() {
		return fmt.Sprintf("%s.%s IS NULL", alias[table], col.Name)
	}
	ref := alias[table] + "." + col.Name
	switch col.Type {
	case datum.KInt, datum.KFloat:
		switch g.rng.Intn(4) {
		case 0:
			return fmt.Sprintf("%s = %s", ref, v)
		case 1:
			return fmt.Sprintf("%s < %s", ref, v)
		case 2:
			return fmt.Sprintf("%s > %s", ref, v)
		default:
			row, err := snap.FetchRow(g.rng.Intn(snap.NumRows()))
			if err != nil {
				return ""
			}
			hi := row[t.ColumnIndex(col.Name)]
			if hi.IsNull() || datum.Compare(hi, v) < 0 {
				return fmt.Sprintf("%s >= %s", ref, v)
			}
			return fmt.Sprintf("%s BETWEEN %s AND %s", ref, v, hi)
		}
	case datum.KString:
		if g.rng.Intn(3) == 0 && len(v.Str()) > 2 {
			return fmt.Sprintf("%s LIKE '%s%%'", ref, escape(v.Str()[:2]))
		}
		return fmt.Sprintf("%s = '%s'", ref, escape(v.Str()))
	case datum.KBool:
		return fmt.Sprintf("%s = %s", ref, v)
	}
	return ""
}

func escape(s string) string { return strings.ReplaceAll(s, "'", "''") }

// sampleProjection writes the select list and returns the group-by columns
// (empty for non-grouped queries) and the aggregate expression text
// ("" when not aggregating).
func (g *Generator) sampleProjection(tables []string, alias map[string]string, sb *strings.Builder) ([]string, string) {
	if g.rng.Float64() < g.cfg.AggProb {
		agg := "COUNT(*)"
		if c := g.sampleColumn(tables, alias, true); c != "" && g.rng.Float64() < 0.6 {
			fn := []string{"SUM", "AVG", "MIN", "MAX"}[g.rng.Intn(4)]
			agg = fmt.Sprintf("%s(%s)", fn, c)
		}
		if g.rng.Float64() < g.cfg.GroupProb {
			if gc := g.sampleColumn(tables, alias, false); gc != "" {
				fmt.Fprintf(sb, "%s, %s", gc, agg)
				return []string{gc}, agg
			}
		}
		sb.WriteString(agg)
		return nil, agg
	}
	n := 1 + g.rng.Intn(3)
	var cols []string
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		if c := g.sampleColumn(tables, alias, false); c != "" && !seen[c] {
			seen[c] = true
			cols = append(cols, c)
		}
	}
	if len(cols) == 0 {
		sb.WriteString("COUNT(*)")
		return nil, "COUNT(*)"
	}
	sb.WriteString(strings.Join(cols, ", "))
	return nil, ""
}

// sampleColumn picks a random (optionally numeric) column reference.
func (g *Generator) sampleColumn(tables []string, alias map[string]string, numeric bool) string {
	for attempt := 0; attempt < 8; attempt++ {
		table := tables[g.rng.Intn(len(tables))]
		t, err := g.eng.Cat.Table(table)
		if err != nil || len(t.Columns) == 0 {
			continue
		}
		col := t.Columns[g.rng.Intn(len(t.Columns))]
		if numeric && col.Type != datum.KInt && col.Type != datum.KFloat {
			continue
		}
		return alias[table] + "." + col.Name
	}
	return ""
}

func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}
