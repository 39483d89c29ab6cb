// Package pool implements POOL (Physical Operator Object Language) and its
// underlying data model POEM (Physical Operator ObjEct Model) from Section 4
// of the paper. Subject-matter experts use POOL to create and maintain the
// natural-language labels of physical operators that RULE-LANTERN stitches
// into QEP narrations.
//
// Exactly as the paper's implementation note prescribes, POEM objects are
// stored in two relations inside a standard relational database — here the
// substrate engine itself:
//
//	POperators(oid, source, name, alias, type, defn, cond, targetid)
//	PDesc(oid, descr)
//
// and POOL statements are translated to SQL statements over these relations
// (the paper used a Python script; here the translation layer is Go).
//
// Template conventions. A description (desc) may embed placeholders
// ($R1$, $R2$, $cond$, $group$, $sort$, $index$) directly; when it does, the
// COMPOSE statement uses it verbatim. A description without placeholders is
// completed from the operator's TYPE and COND attributes: binary operators
// gain " on $R2$ and $R1$", unary ones " on $R1$", and COND = 'true'
// appends " on condition $cond$" (binary) or " and filtering on $cond$"
// (unary) — reproducing the paper's examples ("hash $R1$ and perform hash
// join on $R2$ and $R1$ on condition $cond$").
package pool

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"lantern/internal/engine"
)

// Object is a POEM object: one physical operator of one source engine.
type Object struct {
	OID    int
	Source string
	Name   string
	Alias  string
	Type   string // "unary" or "binary"
	Defn   string
	Cond   bool
	Target string // name of the critical operator this auxiliary supports
	Descs  []string
}

// DisplayName returns the alias when set, the raw name otherwise — the
// n.name rule of the language-annotated operator tree (paper §5.3).
func (o *Object) DisplayName() string {
	if o.Alias != "" {
		return o.Alias
	}
	return o.Name
}

// Result is the outcome of executing one POOL statement.
type Result struct {
	Objects  []Object // SELECT results
	Columns  []string // attribute names for SELECT with explicit lists
	Rows     [][]string
	Template string // COMPOSE result
	Affected int    // CREATE/UPDATE counts
}

// Mutation describes one POOL write that changed an operator's narration
// inputs: a CREATE, an UPDATE (the paper's ALTER path), or a DROP. Hooks
// registered with OnMutation receive it after the write commits.
type Mutation struct {
	Source string
	Name   string
	Kind   string // "create", "update", "drop"
}

// MutationHook observes committed POOL mutations. Hooks run outside the
// store lock, in registration order, on the goroutine that executed the
// statement; they may call back into the store.
type MutationHook func(Mutation)

// Store is a POEM store. All state lives in the backing engine relations;
// the struct itself only carries the connection, the OID counter, and the
// RNG used for unconstrained desc choice in COMPOSE.
//
// A Store is safe for concurrent use: all public entry points serialize on
// an internal mutex (the backing engine itself is single-threaded).
type Store struct {
	mu      sync.Mutex
	eng     *engine.Engine
	nextOID int
	rng     *rand.Rand
	// known physical operators per source; CREATE POPERATOR validates
	// against this, as the paper requires ("name must exist in the set of
	// physical operators supported by the specified rdbms engine").
	known map[string]map[string]bool
	// hooks fire after committed mutations; pending accumulates events
	// under the lock until the statement completes.
	hooks   []MutationHook
	pending []Mutation
}

// NewStore creates an empty POEM store backed by a fresh engine instance.
func NewStore() *Store {
	s := &Store{
		eng:     engine.NewDefault(),
		nextOID: 1,
		rng:     rand.New(rand.NewSource(1)),
		known:   make(map[string]map[string]bool),
	}
	_, err := s.eng.ExecScript(`
CREATE TABLE poperators (oid INTEGER, source TEXT, name TEXT, alias TEXT, type TEXT, defn TEXT, cond TEXT, targetid INTEGER);
CREATE TABLE pdesc (oid INTEGER, descr TEXT);
CREATE INDEX poperators_oid ON poperators (oid);
CREATE INDEX pdesc_oid ON pdesc (oid);`)
	if err != nil {
		panic("pool: backing schema creation failed: " + err.Error())
	}
	s.RegisterSource("pg",
		"seqscan", "indexscan", "hash", "hashjoin", "mergejoin", "nestedloop",
		"sort", "materialize", "aggregate", "hashaggregate", "groupaggregate",
		"unique", "limit", "result")
	s.RegisterSource("sqlserver",
		"tablescan", "indexseek", "hashmatch", "hashmatchaggregate",
		"mergejoin", "nestedloops", "sort", "streamaggregate", "distinctsort",
		"top", "tablespool", "constantscan")
	s.RegisterSource("mysql",
		"tablescan", "indexlookup", "indexrangescan", "indexscan",
		"nestedloop", "hashjoin", "filesort", "group", "duplicatesremoval",
		"materialize", "bufferresult", "constantresult")
	s.RegisterSource("db2",
		"tbscan", "ixscan", "hsjoin", "msjoin", "nljoin", "zzjoin", "sort",
		"grpby", "unique", "filter", "tq")
	// The native source is the substrate engine's own vocabulary, reached
	// through the direct plan bridge rather than a vendor EXPLAIN parser.
	s.RegisterSource("native",
		"seqscan", "indexscan", "hash", "hashjoin", "mergejoin", "nestedloop",
		"sort", "materialize", "aggregate", "hashaggregate", "groupaggregate",
		"unique", "limit", "result")
	return s
}

// OnMutation registers a hook observing committed POOL mutations. The
// serving layer uses this for targeted cache invalidation: an UPDATE of an
// operator's description only needs to drop narrations mentioning that
// operator.
func (s *Store) OnMutation(fn MutationHook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hooks = append(s.hooks, fn)
}

// RegisterSource declares a source engine and its physical operator
// vocabulary.
func (s *Store) RegisterSource(source string, ops ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.known[source]
	if !ok {
		m = make(map[string]bool)
		s.known[source] = m
	}
	for _, op := range ops {
		m[op] = true
	}
}

// Sources lists the registered source engines, sorted.
func (s *Store) Sources() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.known))
	for k := range s.known {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Exec parses and executes one POOL statement.
func (s *Store) Exec(stmt string) (*Result, error) {
	parsed, err := parsePool(stmt)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	var res *Result
	switch st := parsed.(type) {
	case *createStmt:
		res, err = s.execCreate(st)
	case *selectStmt:
		res, err = s.execSelect(st)
	case *composeStmt:
		res, err = s.execCompose(st)
	case *updateStmt:
		res, err = s.execUpdate(st)
	case *dropStmt:
		res, err = s.execDrop(st)
	default:
		err = fmt.Errorf("pool: unsupported statement")
	}
	events := s.pending
	s.pending = nil
	hooks := s.hooks
	s.mu.Unlock()
	// Events fire even when the statement errored: a mutation may have
	// partially committed before the failure, and a spurious invalidation
	// is only a cache miss while a missed one serves stale narrations.
	for _, ev := range events {
		for _, h := range hooks {
			h(ev)
		}
	}
	return res, err
}

// MustExec executes a POOL statement and panics on error; intended for
// seeding code where the statements are constants.
func (s *Store) MustExec(stmt string) *Result {
	r, err := s.Exec(stmt)
	if err != nil {
		panic("pool: " + err.Error() + " in: " + stmt)
	}
	return r
}

// --- CREATE ---------------------------------------------------------------

func (s *Store) execCreate(st *createStmt) (*Result, error) {
	src, ok := s.known[st.source]
	if !ok {
		return nil, fmt.Errorf("pool: unknown source %q (register it first)", st.source)
	}
	if !src[st.name] {
		return nil, fmt.Errorf("pool: %q is not a physical operator of source %q", st.name, st.source)
	}
	// Multiple objects may share a name only when their targets differ
	// (e.g. sort -> mergejoin and sort -> groupaggregate).
	existing, err := s.loadObjects(fmt.Sprintf("source = %s AND name = %s", quote(st.source), quote(st.name)))
	if err != nil {
		return nil, err
	}
	for _, o := range existing {
		if o.Target == st.attrs["target"] {
			return nil, fmt.Errorf("pool: operator %s.%s already exists", st.source, st.name)
		}
	}
	typ := st.attrs["type"]
	if typ != "unary" && typ != "binary" {
		return nil, fmt.Errorf("pool: TYPE must be 'unary' or 'binary', got %q", typ)
	}
	if len(st.descs) == 0 {
		return nil, fmt.Errorf("pool: DESC is mandatory")
	}
	targetID := "NULL"
	if tgt := st.attrs["target"]; tgt != "" {
		tobj, err := s.lookup(st.source, tgt)
		if err != nil {
			return nil, fmt.Errorf("pool: TARGET %q does not exist in source %q", tgt, st.source)
		}
		targetID = fmt.Sprintf("%d", tobj.OID)
	}
	cond := st.attrs["cond"]
	if cond == "" {
		cond = "false"
	}
	oid := s.nextOID
	s.nextOID++
	ins := fmt.Sprintf(
		"INSERT INTO poperators VALUES (%d, %s, %s, %s, %s, %s, %s, %s)",
		oid, quote(st.source), quote(st.name), quote(st.attrs["alias"]),
		quote(typ), quote(st.attrs["defn"]), quote(cond), targetID)
	if _, err := s.eng.Exec(ins); err != nil {
		return nil, fmt.Errorf("pool: %w", err)
	}
	// Recorded as soon as the operator row exists, so the event survives a
	// later desc-insert failure.
	s.pending = append(s.pending, Mutation{Source: st.source, Name: st.name, Kind: "create"})
	for _, d := range st.descs {
		if _, err := s.eng.Exec(fmt.Sprintf("INSERT INTO pdesc VALUES (%d, %s)", oid, quote(d))); err != nil {
			return nil, fmt.Errorf("pool: %w", err)
		}
	}
	return &Result{Affected: 1}, nil
}

func quote(v string) string {
	return "'" + strings.ReplaceAll(v, "'", "''") + "'"
}

// execDrop removes every object of the given name from a source, along
// with its descriptions. Dropping an operator other objects target is
// rejected (the POEM graph must stay consistent).
func (s *Store) execDrop(st *dropStmt) (*Result, error) {
	objs, err := s.loadObjects(fmt.Sprintf("source = %s AND name = %s", quote(st.source), quote(st.name)))
	if err != nil {
		return nil, err
	}
	if len(objs) == 0 {
		return nil, fmt.Errorf("pool: no operator %q in source %q", st.name, st.source)
	}
	targets, err := s.auxiliaryTargets(st.source)
	if err != nil {
		return nil, err
	}
	for aux, set := range targets {
		if aux != st.name && set[st.name] {
			return nil, fmt.Errorf("pool: cannot drop %s.%s: auxiliary operator %q targets it",
				st.source, st.name, aux)
		}
	}
	// Recorded before the deletes so a mid-loop failure (rows partially
	// gone) still invalidates dependent caches.
	s.pending = append(s.pending, Mutation{Source: st.source, Name: st.name, Kind: "drop"})
	for _, o := range objs {
		if _, err := s.eng.Exec(fmt.Sprintf("DELETE FROM pdesc WHERE oid = %d", o.OID)); err != nil {
			return nil, fmt.Errorf("pool: %w", err)
		}
		if _, err := s.eng.Exec(fmt.Sprintf("DELETE FROM poperators WHERE oid = %d", o.OID)); err != nil {
			return nil, fmt.Errorf("pool: %w", err)
		}
	}
	return &Result{Affected: len(objs)}, nil
}

// --- Object loading --------------------------------------------------------

// Lookup returns the first object named name in source.
func (s *Store) Lookup(source, name string) (*Object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lookup(source, name)
}

func (s *Store) lookup(source, name string) (*Object, error) {
	objs, err := s.loadObjects(fmt.Sprintf("source = %s AND name = %s", quote(source), quote(name)))
	if err != nil {
		return nil, err
	}
	if len(objs) == 0 {
		return nil, fmt.Errorf("pool: no operator %q in source %q", name, source)
	}
	return &objs[0], nil
}

// Objects returns every object of a source, ordered by OID.
func (s *Store) Objects(source string) ([]Object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.objects(source)
}

func (s *Store) objects(source string) ([]Object, error) {
	return s.loadObjects("source = " + quote(source))
}

// AuxiliaryTargets returns, for a source, the mapping from auxiliary
// operator name to the set of critical operator names it supports (derived
// from the target attribute; paper §4.2's directed edges).
func (s *Store) AuxiliaryTargets(source string) (map[string]map[string]bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.auxiliaryTargets(source)
}

func (s *Store) auxiliaryTargets(source string) (map[string]map[string]bool, error) {
	objs, err := s.objects(source)
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[string]bool)
	for _, o := range objs {
		if o.Target == "" {
			continue
		}
		if out[o.Name] == nil {
			out[o.Name] = make(map[string]bool)
		}
		out[o.Name][o.Target] = true
	}
	return out, nil
}

// loadObjects materializes objects matching a SQL condition over the
// poperators relation (dogfooding: POOL reads go through engine SQL).
func (s *Store) loadObjects(sqlCond string) ([]Object, error) {
	q := "SELECT oid, source, name, alias, type, defn, cond, targetid FROM poperators"
	if sqlCond != "" {
		q += " WHERE " + sqlCond
	}
	q += " ORDER BY oid"
	res, err := s.eng.Exec(q)
	if err != nil {
		return nil, fmt.Errorf("pool: %w", err)
	}
	objs := make([]Object, 0, len(res.Rows))
	for _, r := range res.Rows {
		o := Object{
			OID:    int(r[0].Int()),
			Source: r[1].Str(),
			Name:   r[2].Str(),
		}
		if !r[3].IsNull() {
			o.Alias = r[3].Str()
		}
		if !r[4].IsNull() {
			o.Type = r[4].Str()
		}
		if !r[5].IsNull() {
			o.Defn = r[5].Str()
		}
		if !r[6].IsNull() {
			o.Cond = r[6].Str() == "true"
		}
		if !r[7].IsNull() {
			tgt, err := s.nameOf(int(r[7].Int()))
			if err != nil {
				return nil, err
			}
			o.Target = tgt
		}
		descRes, err := s.eng.Exec(fmt.Sprintf("SELECT descr FROM pdesc WHERE oid = %d ORDER BY descr", o.OID))
		if err != nil {
			return nil, fmt.Errorf("pool: %w", err)
		}
		for _, dr := range descRes.Rows {
			o.Descs = append(o.Descs, dr[0].Str())
		}
		objs = append(objs, o)
	}
	return objs, nil
}

func (s *Store) nameOf(oid int) (string, error) {
	res, err := s.eng.Exec(fmt.Sprintf("SELECT name FROM poperators WHERE oid = %d", oid))
	if err != nil {
		return "", fmt.Errorf("pool: %w", err)
	}
	if len(res.Rows) == 0 {
		return "", fmt.Errorf("pool: dangling targetid %d", oid)
	}
	return res.Rows[0][0].Str(), nil
}

// --- SELECT -----------------------------------------------------------------

func (s *Store) execSelect(st *selectStmt) (*Result, error) {
	// Build the SQL translation: one poperators alias per source in FROM,
	// joined with pdesc when desc is referenced.
	type binding struct {
		source   string
		opAlias  string
		dAlias   string
		needDesc bool
	}
	binds := make([]binding, len(st.sources))
	bySource := make(map[string]*binding)
	for i, ref := range st.sources {
		if _, ok := s.known[ref.source]; !ok {
			return nil, fmt.Errorf("pool: unknown source %q", ref.source)
		}
		binds[i] = binding{source: ref.source, opAlias: fmt.Sprintf("p%d", i), dAlias: fmt.Sprintf("d%d", i)}
		bySource[ref.alias] = &binds[i]
	}
	resolveAttr := func(qual, attr string) (string, error) {
		b := &binds[0]
		if qual != "" {
			var ok bool
			b, ok = bySource[qual]
			if !ok {
				return "", fmt.Errorf("pool: unknown source qualifier %q", qual)
			}
		}
		col, ok := attrColumn(attr)
		if !ok {
			return "", fmt.Errorf("pool: unknown attribute %q", attr)
		}
		if attr == "desc" {
			b.needDesc = true
			return b.dAlias + "." + col, nil
		}
		return b.opAlias + "." + col, nil
	}

	var selectCols []string
	var colNames []string
	if st.star {
		selectCols = append(selectCols, binds[0].opAlias+".oid")
		colNames = append(colNames, "oid")
	} else {
		for _, a := range st.attrs {
			c, err := resolveAttr(a.qual, a.name)
			if err != nil {
				return nil, err
			}
			selectCols = append(selectCols, c)
			colNames = append(colNames, a.name)
		}
	}
	var conds []string
	for _, c := range st.conds {
		lhs, err := resolveAttr(c.lQual, c.lAttr)
		if err != nil {
			return nil, err
		}
		var rhs string
		if c.rAttr != "" {
			rhs, err = resolveAttr(c.rQual, c.rAttr)
			if err != nil {
				return nil, err
			}
		} else {
			rhs = quote(c.value)
		}
		conds = append(conds, fmt.Sprintf("%s %s %s", lhs, c.op, rhs))
	}
	var from []string
	for _, b := range binds {
		from = append(from, "poperators AS "+b.opAlias)
		conds = append(conds, fmt.Sprintf("%s.source = %s", b.opAlias, quote(b.source)))
	}
	for _, b := range binds {
		if b.needDesc {
			from = append(from, "pdesc AS "+b.dAlias)
			conds = append(conds, fmt.Sprintf("%s.oid = %s.oid", b.opAlias, b.dAlias))
		}
	}
	q := fmt.Sprintf("SELECT %s FROM %s WHERE %s",
		strings.Join(selectCols, ", "), strings.Join(from, ", "), strings.Join(conds, " AND "))
	res, err := s.eng.Exec(q)
	if err != nil {
		return nil, fmt.Errorf("pool: %w", err)
	}
	out := &Result{Columns: colNames}
	if st.star {
		for _, r := range res.Rows {
			objs, err := s.loadObjects(fmt.Sprintf("oid = %d", r[0].Int()))
			if err != nil {
				return nil, err
			}
			out.Objects = append(out.Objects, objs...)
		}
		return out, nil
	}
	for _, r := range res.Rows {
		row := make([]string, len(r))
		for i, v := range r {
			if v.IsNull() {
				row[i] = ""
			} else {
				row[i] = v.Raw()
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// attrColumn maps a POOL attribute to its backing column.
func attrColumn(attr string) (string, bool) {
	switch attr {
	case "oid", "source", "name", "alias", "type", "defn", "cond":
		return attr, true
	case "desc":
		return "descr", true
	case "target":
		return "targetid", true
	}
	return "", false
}

// --- UPDATE -----------------------------------------------------------------

func (s *Store) execUpdate(st *updateStmt) (*Result, error) {
	if _, ok := s.known[st.source]; !ok {
		return nil, fmt.Errorf("pool: unknown source %q", st.source)
	}
	// Locate target oids.
	conds := []string{"source = " + quote(st.source)}
	for _, c := range st.conds {
		if c.lQual != "" && c.lQual != st.source {
			return nil, fmt.Errorf("pool: UPDATE may only reference source %q, got %q", st.source, c.lQual)
		}
		col, ok := attrColumn(c.lAttr)
		if !ok || c.lAttr == "desc" {
			return nil, fmt.Errorf("pool: cannot filter UPDATE on attribute %q", c.lAttr)
		}
		conds = append(conds, fmt.Sprintf("%s %s %s", col, c.op, quote(c.value)))
	}
	res, err := s.eng.Exec("SELECT oid, name FROM poperators WHERE " + strings.Join(conds, " AND "))
	if err != nil {
		return nil, fmt.Errorf("pool: %w", err)
	}
	if len(res.Rows) == 0 {
		return &Result{Affected: 0}, nil
	}
	// Record the mutations before writing (coalesced by name) so a
	// mid-statement failure with partially applied sets still invalidates
	// dependent caches.
	touched := make(map[string]bool)
	for _, r := range res.Rows {
		touched[r[1].Str()] = true
	}
	names := make([]string, 0, len(touched))
	for n := range touched {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s.pending = append(s.pending, Mutation{Source: st.source, Name: n, Kind: "update"})
	}
	affected := 0
	for _, r := range res.Rows {
		oid := r[0].Int()
		for _, set := range st.sets {
			val, err := s.evalValue(set.value)
			if err != nil {
				return nil, err
			}
			if set.attr == "desc" {
				// Replace all descriptions with the new one.
				if _, err := s.eng.Exec(fmt.Sprintf("DELETE FROM pdesc WHERE oid = %d", oid)); err != nil {
					return nil, fmt.Errorf("pool: %w", err)
				}
				if _, err := s.eng.Exec(fmt.Sprintf("INSERT INTO pdesc VALUES (%d, %s)", oid, quote(val))); err != nil {
					return nil, fmt.Errorf("pool: %w", err)
				}
			} else {
				col, ok := attrColumn(set.attr)
				if !ok || set.attr == "oid" || set.attr == "source" || set.attr == "target" {
					return nil, fmt.Errorf("pool: cannot update attribute %q", set.attr)
				}
				upd := fmt.Sprintf("UPDATE poperators SET %s = %s WHERE oid = %d", col, quote(val), oid)
				if _, err := s.eng.Exec(upd); err != nil {
					return nil, fmt.Errorf("pool: %w", err)
				}
			}
		}
		affected++
	}
	return &Result{Affected: affected}, nil
}

// evalValue evaluates a POOL value expression: a literal, a scalar
// (SELECT attr FROM source WHERE ...) subquery, or REPLACE(value, from, to).
func (s *Store) evalValue(v valueExpr) (string, error) {
	switch val := v.(type) {
	case literalValue:
		return string(val), nil
	case *subqueryValue:
		res, err := s.execSelect(val.query)
		if err != nil {
			return "", err
		}
		if len(res.Rows) == 0 {
			return "", fmt.Errorf("pool: subquery returned no rows")
		}
		return res.Rows[0][0], nil
	case *replaceValue:
		inner, err := s.evalValue(val.inner)
		if err != nil {
			return "", err
		}
		return strings.ReplaceAll(inner, val.from, val.to), nil
	}
	return "", fmt.Errorf("pool: unsupported value expression %T", v)
}
