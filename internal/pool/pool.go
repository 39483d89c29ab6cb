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
// and the POOL writes and SELECT are translated to SQL statements over
// these relations (the paper used a Python script; here the translation
// layer is Go). Narration reads an Index instead: an immutable copy of both
// relations, rebuilt after every write, so it runs no SQL and takes no lock.
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
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

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
	// templates holds each of Descs as COMPOSE renders it.
	templates []string
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

// Store is a POEM store, safe for concurrent use. Its state lives in the
// two relations of its backing engine, the source of truth, and in the
// published Index. Exec rebuilds the Index after every write statement that
// recorded a mutation (one that failed partway included), under mu and
// before the mutation hooks fire, so a read that starts after Exec returns
// sees the write.
//
// mu serializes POOL writes and SELECT (the backing engine is
// single-threaded) and guards the OID counter, the source vocabularies and
// the hooks. Reads through Index and COMPOSE take no store lock; the
// description RNG they draw from has its own.
type Store struct {
	mu      sync.Mutex
	eng     *engine.Engine
	nextOID int
	idx     atomic.Pointer[Index]
	rng     *lockedRand
	// known physical operators per source; CREATE POPERATOR validates
	// against this, as the paper requires ("name must exist in the set of
	// physical operators supported by the specified rdbms engine").
	known map[string]map[string]bool
	// hooks fire after committed mutations; pending accumulates events
	// under the lock until the statement completes.
	hooks   []MutationHook
	pending []Mutation
}

// lockedRand is the RNG behind unconstrained description choice in
// COMPOSE. Draws hold its own lock, so sequential COMPOSEs draw in one fixed
// sequence.
type lockedRand struct {
	sync.Mutex
	*rand.Rand
}

// NewStore creates an empty POEM store backed by a fresh engine instance.
func NewStore() *Store {
	s := &Store{
		eng:     engine.NewDefault(),
		nextOID: 1,
		rng:     &lockedRand{Rand: rand.New(rand.NewSource(1))},
		known:   make(map[string]map[string]bool),
	}
	_, err := s.eng.ExecScript(`
CREATE TABLE poperators (oid INTEGER, source TEXT, name TEXT, alias TEXT, type TEXT, defn TEXT, cond TEXT, targetid INTEGER);
CREATE TABLE pdesc (oid INTEGER, descr TEXT);
CREATE INDEX poperators_oid ON poperators (oid);
CREATE INDEX pdesc_oid ON pdesc (oid);`)
	if err == nil {
		err = s.publish()
	}
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
	if st, ok := parsed.(*composeStmt); ok {
		tpl, err := s.Index().ComposeTemplate(st.source, st.names, st.using)
		if err != nil {
			return nil, err
		}
		return &Result{Template: tpl}, nil
	}
	s.mu.Lock()
	var res *Result
	switch st := parsed.(type) {
	case *createStmt:
		res, err = s.execCreate(st)
	case *selectStmt:
		res, err = s.execSelect(st)
	case *updateStmt:
		res, err = s.execUpdate(st)
	case *dropStmt:
		res, err = s.execDrop(st)
	default:
		err = fmt.Errorf("pool: unsupported statement")
	}
	events := s.pending
	s.pending = nil
	// A statement that recorded a mutation may have written rows even if
	// it then failed, so the index is rebuilt either way.
	if len(events) > 0 {
		if perr := s.publish(); perr != nil {
			res, err = nil, errors.Join(err, perr)
		}
	}
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
	if _, ok := s.known[st.source]; !ok {
		return nil, fmt.Errorf("pool: unknown source %q (register it first)", st.source)
	}
	if st.attrs["cond"] == "" {
		st.attrs["cond"] = "false"
	}
	for _, v := range [][2]string{{"name", st.name}, {"type", st.attrs["type"]}, {"cond", st.attrs["cond"]}} {
		if err := s.checkValue(st.source, v[0], v[1]); err != nil {
			return nil, err
		}
	}
	// Multiple objects may share a name only when their targets differ
	// (e.g. sort -> mergejoin and sort -> groupaggregate).
	ix := s.Index()
	for _, o := range ix.all {
		if o.Source == st.source && o.Name == st.name && o.Target == st.attrs["target"] {
			return nil, fmt.Errorf("pool: operator %s.%s already exists", st.source, st.name)
		}
	}
	if len(st.descs) == 0 {
		return nil, fmt.Errorf("pool: DESC is mandatory")
	}
	targetID := "NULL"
	if tgt := st.attrs["target"]; tgt != "" {
		tobj, err := ix.Lookup(st.source, tgt)
		if err != nil {
			return nil, fmt.Errorf("pool: TARGET %q does not exist in source %q", tgt, st.source)
		}
		targetID = fmt.Sprintf("%d", tobj.OID)
	}
	oid := s.nextOID
	s.nextOID++
	script := fmt.Sprintf(
		"INSERT INTO poperators VALUES (%d, %s, %s, %s, %s, %s, %s, %s);",
		oid, quote(st.source), quote(st.name), quote(st.attrs["alias"]),
		quote(st.attrs["type"]), quote(st.attrs["defn"]), quote(st.attrs["cond"]), targetID)
	for _, d := range st.descs {
		script += fmt.Sprintf("INSERT INTO pdesc VALUES (%d, %s);", oid, quote(d))
	}
	return s.write(script, 1, Mutation{Source: st.source, Name: st.name, Kind: "create"})
}

// write records a statement's mutations, then runs its SQL script. The
// mutations come first so that a script failing partway, with some rows
// written, still republishes the index and fires the hooks.
func (s *Store) write(script string, affected int, muts ...Mutation) (*Result, error) {
	s.pending = append(s.pending, muts...)
	if _, err := s.eng.ExecScript(script); err != nil {
		return nil, fmt.Errorf("pool: %w", err)
	}
	return &Result{Affected: affected}, nil
}

// checkValue rejects a name, TYPE or COND value that CREATE and UPDATE may
// not store in source.
func (s *Store) checkValue(source, attr, val string) error {
	switch {
	case attr == "name" && !s.known[source][val]:
		return fmt.Errorf("pool: %q is not a physical operator of source %q", val, source)
	case attr == "type" && val != "unary" && val != "binary":
		return fmt.Errorf("pool: TYPE must be 'unary' or 'binary', got %q", val)
	case attr == "cond" && val != "true" && val != "false":
		return fmt.Errorf("pool: COND must be 'true' or 'false', got %q", val)
	}
	return nil
}

func quote(v string) string {
	return "'" + strings.ReplaceAll(v, "'", "''") + "'"
}

// execDrop removes every object of the given name from a source, along
// with its descriptions. Dropping an operator other objects target is
// rejected (the POEM graph must stay consistent).
func (s *Store) execDrop(st *dropStmt) (*Result, error) {
	script, n := "", 0
	for _, o := range s.Index().all {
		switch {
		case o.Source != st.source:
		case o.Name == st.name:
			script += fmt.Sprintf("DELETE FROM pdesc WHERE oid = %[1]d; DELETE FROM poperators WHERE oid = %[1]d;", o.OID)
			n++
		case o.Target == st.name:
			return nil, fmt.Errorf("pool: cannot drop %s.%s: auxiliary operator %q targets it",
				st.source, st.name, o.Name)
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("pool: no operator %q in source %q", st.name, st.source)
	}
	return s.write(script, n, Mutation{Source: st.source, Name: st.name, Kind: "drop"})
}

// --- The published index ----------------------------------------------------

// Index is one published state of a Store: both relations read into
// memory, with targetids resolved to names. It never changes, so readers
// share it without locks; the objects it hands out must not be modified.
type Index struct {
	all   []Object                              // every object, in OID order
	byOID map[int]*Object                       // for SELECT *
	first map[opKey]*Object                     // first object per (source, name)
	aux   map[string]map[string]map[string]bool // source -> auxiliary -> critical names
	rng   *lockedRand
}

type opKey struct{ source, name string }

// Index returns the published index, the read side of the store. A reader
// that needs one POOL state for a whole task, such as building a LOT, reads
// one Index for all of it.
func (s *Store) Index() *Index { return s.idx.Load() }

// publish rebuilds the index from the two relations and publishes it. The
// caller holds mu.
func (s *Store) publish() error {
	ops, err := s.eng.Exec("SELECT oid, source, name, alias, type, defn, cond, targetid FROM poperators ORDER BY oid")
	if err != nil {
		return fmt.Errorf("pool: %w", err)
	}
	descs, err := s.eng.Exec("SELECT oid, descr FROM pdesc ORDER BY oid, descr")
	if err != nil {
		return fmt.Errorf("pool: %w", err)
	}
	ix := &Index{
		all:   make([]Object, len(ops.Rows)),
		byOID: make(map[int]*Object, len(ops.Rows)),
		first: make(map[opKey]*Object, len(ops.Rows)),
		aux:   make(map[string]map[string]map[string]bool),
		rng:   s.rng,
	}
	d := descs.Rows
	for i, r := range ops.Rows {
		// Only Exec writes these relations, and only targetid may be NULL.
		o := &ix.all[i]
		*o = Object{OID: int(r[0].Int()), Source: r[1].Str(), Name: r[2].Str(),
			Alias: r[3].Str(), Type: r[4].Str(), Defn: r[5].Str(), Cond: r[6].Str() == "true"}
		// Both results are in OID order, so this object's descriptions are
		// at the front of d; any before them belong to no operator.
		for ; len(d) > 0 && int(d[0][0].Int()) <= o.OID; d = d[1:] {
			if int(d[0][0].Int()) == o.OID {
				o.Descs = append(o.Descs, d[0][1].Str())
				o.templates = append(o.templates, o.complete(d[0][1].Str()))
			}
		}
		ix.byOID[o.OID] = o
		if ix.first[opKey{o.Source, o.Name}] == nil {
			ix.first[opKey{o.Source, o.Name}] = o
		}
	}
	for i, r := range ops.Rows {
		if r[7].IsNull() {
			continue
		}
		o, t := &ix.all[i], ix.byOID[int(r[7].Int())]
		if t == nil {
			return fmt.Errorf("pool: dangling targetid %d", r[7].Int())
		}
		o.Target = t.Name
		if ix.aux[o.Source] == nil {
			ix.aux[o.Source] = make(map[string]map[string]bool)
		}
		if ix.aux[o.Source][o.Name] == nil {
			ix.aux[o.Source][o.Name] = make(map[string]bool)
		}
		ix.aux[o.Source][o.Name][o.Target] = true
	}
	s.idx.Store(ix)
	return nil
}

// Lookup returns the first object, in OID order, named name in source.
func (ix *Index) Lookup(source, name string) (*Object, error) {
	if o := ix.first[opKey{source, name}]; o != nil {
		return o, nil
	}
	return nil, fmt.Errorf("pool: no operator %q in source %q", name, source)
}

// Objects returns every object of a source, ordered by OID.
func (ix *Index) Objects(source string) []Object {
	var out []Object
	for _, o := range ix.all {
		if o.Source == source {
			out = append(out, o)
		}
	}
	return out
}

// AuxiliaryTargets returns, for a source, the mapping from auxiliary
// operator name to the set of critical operator names it supports (derived
// from the target attribute; paper §4.2's directed edges).
func (ix *Index) AuxiliaryTargets(source string) map[string]map[string]bool {
	return ix.aux[source]
}

// --- SELECT -----------------------------------------------------------------

func (s *Store) execSelect(st *selectStmt) (*Result, error) {
	// Build the SQL translation: poperators AS p<i> for the i-th source in
	// FROM, joined with pdesc AS d<i> when that source's desc is referenced.
	qualifiers := make(map[string]int)
	for i, ref := range st.sources {
		if _, ok := s.known[ref.source]; !ok {
			return nil, fmt.Errorf("pool: unknown source %q", ref.source)
		}
		qualifiers[ref.alias] = i
	}
	needDesc := make([]bool, len(st.sources))
	resolveAttr := func(qual, attr string) (string, error) {
		i, ok := qualifiers[qual] // an unqualified attribute is the first source's
		if !ok && qual != "" {
			return "", fmt.Errorf("pool: unknown source qualifier %q", qual)
		}
		col, ok := attrColumn(attr)
		if !ok {
			return "", fmt.Errorf("pool: unknown attribute %q", attr)
		}
		if attr == "desc" {
			needDesc[i] = true
			return fmt.Sprintf("d%d.%s", i, col), nil
		}
		return fmt.Sprintf("p%d.%s", i, col), nil
	}

	selectCols, colNames := []string{"p0.oid"}, []string{"oid"}
	if !st.star {
		selectCols, colNames = nil, nil
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
	for i, ref := range st.sources {
		from = append(from, fmt.Sprintf("poperators AS p%d", i))
		conds = append(conds, fmt.Sprintf("p%d.source = %s", i, quote(ref.source)))
	}
	for i, need := range needDesc {
		if need {
			from = append(from, fmt.Sprintf("pdesc AS d%d", i))
			conds = append(conds, fmt.Sprintf("p%[1]d.oid = d%[1]d.oid", i))
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
		ix := s.Index()
		for _, r := range res.Rows {
			if o := ix.byOID[int(r[0].Int())]; o != nil {
				out.Objects = append(out.Objects, *o)
			}
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
	// Evaluate and check every value before anything is written, so a
	// rejected UPDATE changes nothing and records no mutation.
	vals := make([]string, len(st.sets))
	rename := ""
	for i, set := range st.sets {
		if col, ok := attrColumn(set.attr); !ok || col == "oid" || col == "source" || col == "targetid" {
			return nil, fmt.Errorf("pool: cannot update attribute %q", set.attr)
		}
		val, err := s.evalValue(set.value)
		if err != nil {
			return nil, err
		}
		if err := s.checkValue(st.source, set.attr, val); err != nil {
			return nil, err
		}
		if set.attr == "name" {
			rename = val
		}
		vals[i] = val
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
	matched := make(map[int]bool)
	names := make([]string, len(res.Rows))
	script := ""
	for i, r := range res.Rows {
		matched[int(r[0].Int())] = true
		names[i] = r[1].Str()
		for j, set := range st.sets {
			if set.attr == "desc" {
				// Replace all descriptions with the new one.
				script += fmt.Sprintf("DELETE FROM pdesc WHERE oid = %[1]d; INSERT INTO pdesc VALUES (%[1]d, %[2]s);", r[0].Int(), quote(vals[j]))
			} else {
				script += fmt.Sprintf("UPDATE poperators SET %s = %s WHERE oid = %d;", set.attr, quote(vals[j]), r[0].Int())
			}
		}
	}
	// After a rename, as after CREATE, no two objects of the source may
	// share a (name, target) pair.
	pairs := make(map[[2]string]bool)
	for _, o := range s.Index().all {
		if rename == "" || o.Source != st.source {
			continue
		}
		name := o.Name
		if matched[o.OID] {
			name = rename
		}
		if pairs[[2]string{name, o.Target}] {
			return nil, fmt.Errorf("pool: operator %s.%s already exists", st.source, name)
		}
		pairs[[2]string{name, o.Target}] = true
	}
	// One mutation per touched name, however many objects share it.
	slices.Sort(names)
	var muts []Mutation
	for _, n := range slices.Compact(names) {
		muts = append(muts, Mutation{Source: st.source, Name: n, Kind: "update"})
	}
	return s.write(script, len(res.Rows), muts...)
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
