package plan

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Registry errors, distinguishable with errors.Is so callers (the serving
// layer) can classify them as client mistakes.
var (
	ErrUnknownDialect     = errors.New("plan: unknown dialect")
	ErrNoEngineSerializer = errors.New("plan: dialect has no engine serializer")
)

// ParseFunc parses one serialized plan document into a vendor-neutral
// operator tree.
type ParseFunc func(doc string) (*Node, error)

// Dialect describes one registered plan frontend: how to parse its
// serialization, how to recognize a document as belonging to it, and —
// when the substrate engine can emit the serialization — which EXPLAIN
// FORMAT keyword produces it and how a bridged engine plan becomes the
// tree its parser would read. Adding an RDBMS to LANTERN is exactly what
// the paper promises: write a parser, register it here, and seed POOL
// descriptions for its operator vocabulary. For the engine to emit the
// format too, write its formatter beside the parser, give it a case in
// the engine's EXPLAIN switch, and set EngineFormat and FromEngine.
type Dialect struct {
	// Name is the dialect identifier used throughout the system ("pg",
	// "sqlserver", "mysql") and as the Source of parsed nodes.
	Name string
	// Parse converts a serialized plan document into an operator tree.
	Parse ParseFunc
	// Detect reports whether doc looks like this dialect's serialization.
	// Optional; dialects without a detector are skipped by auto-detection.
	Detect func(doc string) bool
	// EngineFormat is the substrate engine's EXPLAIN FORMAT keyword that
	// emits this dialect's serialization ("NATIVE", "JSON", "XML",
	// "MYSQL"), or "" when the engine cannot produce it and only
	// pre-serialized plan documents can be narrated. The engine writes
	// each with this package's formatter for the dialect (FormatNative,
	// FormatPostgresJSON, FormatSQLServerXML, FormatMySQLJSON).
	EngineFormat string
	// FromEngine turns a tree bridged from the engine's plan
	// (engine.ToPlanNode, Source "native") into the tree Parse reads from
	// the EngineFormat document of that plan. Where Parse∘Format is the
	// identity up to Source it writes no document; otherwise it formats
	// and parses. It may modify its argument and return it. Set exactly
	// when EngineFormat is.
	FromEngine func(bridged *Node) (*Node, error)
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]Dialect)
	regOrder []string // registration order, drives auto-detection
)

// Register adds a dialect to the registry. Registering an already-known
// name replaces the previous entry (keeping its detection priority), so
// embedders can override a built-in frontend.
func Register(d Dialect) error {
	if d.Name == "" {
		return fmt.Errorf("plan: dialect name must not be empty")
	}
	if d.Parse == nil {
		return fmt.Errorf("plan: dialect %q has no parse function", d.Name)
	}
	if (d.EngineFormat == "") != (d.FromEngine == nil) {
		return fmt.Errorf("plan: dialect %q must set EngineFormat and FromEngine together", d.Name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, exists := registry[d.Name]; !exists {
		regOrder = append(regOrder, d.Name)
	}
	registry[d.Name] = d
	return nil
}

// MustRegister is Register, panicking on error; for init-time
// registration of statically-known dialects.
func MustRegister(d Dialect) {
	if err := Register(d); err != nil {
		panic(err)
	}
}

// RegisterDialect registers a minimal dialect: a name and a parser, with
// no auto-detection and no engine serializer.
func RegisterDialect(name string, parse ParseFunc) error {
	return Register(Dialect{Name: name, Parse: parse})
}

// Lookup returns the registered dialect.
func Lookup(name string) (Dialect, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	d, ok := registry[name]
	return d, ok
}

// Dialects returns the registered dialect names, sorted.
func Dialects() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Parse parses doc with the named dialect's frontend.
func Parse(dialect, doc string) (*Node, error) {
	d, ok := Lookup(dialect)
	if !ok {
		return nil, fmt.Errorf("%w %q (registered: %s)",
			ErrUnknownDialect, dialect, strings.Join(Dialects(), ", "))
	}
	return d.Parse(doc)
}

// EngineDialect looks up a dialect the substrate engine can emit, one
// registered with an EngineFormat. Any other name fails as
// ExplainAndParse and FromEngine fail for it, with ErrUnknownDialect or
// ErrNoEngineSerializer.
func EngineDialect(name string) (Dialect, error) {
	d, ok := Lookup(name)
	if !ok {
		return Dialect{}, fmt.Errorf("%w %q (registered: %s)",
			ErrUnknownDialect, name, strings.Join(Dialects(), ", "))
	}
	if d.EngineFormat == "" {
		return Dialect{}, fmt.Errorf("%w: %q accepts only pre-serialized plan documents", ErrNoEngineSerializer, name)
	}
	return d, nil
}

// ExplainAndParse is the reference SQL path: it resolves the dialect,
// obtains the serialized plan by calling explain with the dialect's
// engine EXPLAIN FORMAT keyword, and parses the document back through the
// registered frontend — how LANTERN consumes plans from a real RDBMS.
// Callers that want the document too (the CLI, which prints it with
// -show-plan, and the corpus generator) use it, and tests pin FromEngine
// against it.
func ExplainAndParse(dialect string, explain func(engineFormat string) (doc string, err error)) (*Node, string, error) {
	d, err := EngineDialect(dialect)
	if err != nil {
		return nil, "", err
	}
	doc, err := explain(d.EngineFormat)
	if err != nil {
		return nil, "", err
	}
	tree, err := d.Parse(doc)
	return tree, doc, err
}

// FromEngine returns the tree ExplainAndParse returns for dialect, from
// the engine's bridged plan tree (engine.ToPlanNode) rather than its
// EXPLAIN document: native serves the tree as it is, pg relabels its
// Source, and sqlserver and mysql, whose documents rename and regroup
// operators, still format and parse. The serving layer narrates SQL
// through it. It may modify bridged and return it.
func FromEngine(dialect string, bridged *Node) (*Node, error) {
	d, err := EngineDialect(dialect)
	if err != nil {
		return nil, err
	}
	return d.FromEngine(bridged)
}

// relabel is the FromEngine of a format whose Parse∘Format is the
// identity up to Source: it sets Source on every node in place.
func relabel(source string) func(*Node) (*Node, error) {
	return func(n *Node) (*Node, error) {
		setSource(n, source)
		return n, nil
	}
}

func setSource(n *Node, source string) {
	n.Source = source
	for _, c := range n.Children {
		setSource(c, source)
	}
}

// viaDocument is the FromEngine of a format whose parser reads back a
// different tree than was formatted: it writes the document and parses it.
func viaDocument(format func(*Node) (string, error), parse ParseFunc) func(*Node) (*Node, error) {
	return func(n *Node) (*Node, error) {
		doc, err := format(n)
		if err != nil {
			return nil, err
		}
		return parse(doc)
	}
}

// Detect identifies which registered dialect doc is serialized in, trying
// detectors in registration order (native, then pg-JSON, then
// showplan-XML, then mysql-JSON for the built-ins).
func Detect(doc string) (string, error) {
	regMu.RLock()
	order := make([]Dialect, 0, len(regOrder))
	for _, name := range regOrder {
		order = append(order, registry[name])
	}
	regMu.RUnlock()
	for _, d := range order {
		if d.Detect != nil && d.Detect(doc) {
			return d.Name, nil
		}
	}
	return "", fmt.Errorf("plan: cannot detect plan dialect (expect a native lantern_plan object, a PostgreSQL EXPLAIN JSON array, a ShowPlanXML document, or a MySQL EXPLAIN JSON object)")
}

// ParseAuto detects doc's dialect and parses it, returning the tree and
// the detected dialect name.
func ParseAuto(doc string) (*Node, string, error) {
	dialect, err := Detect(doc)
	if err != nil {
		return nil, "", err
	}
	tree, err := Parse(dialect, doc)
	return tree, dialect, err
}

func init() {
	// The native dialect registers first so its detector wins: a native
	// document whose condition text happens to mention "query_block" (or
	// any other dialect's marker) must never be misclassified as pg or
	// mysql JSON. The converse cannot happen either — detectNative
	// requires a genuine top-level "lantern_plan" key, which no foreign
	// emitter produces.
	MustRegister(Dialect{
		Name:         "native",
		Parse:        ParseNativeJSON,
		EngineFormat: "NATIVE",
		// ParseNativeJSON∘FormatNative is the identity.
		FromEngine: func(n *Node) (*Node, error) { return n, nil },
		Detect:     detectNative,
	})
	MustRegister(Dialect{
		Name:         "pg",
		Parse:        ParsePostgresJSON,
		EngineFormat: "JSON",
		// ParsePostgresJSON∘FormatPostgresJSON is the identity up to
		// Source on bridged trees.
		FromEngine: relabel("pg"),
		// PostgreSQL's EXPLAIN (FORMAT JSON) is a one-element array.
		Detect: func(doc string) bool {
			return strings.HasPrefix(strings.TrimSpace(doc), "[")
		},
	})
	MustRegister(Dialect{
		Name:         "sqlserver",
		Parse:        ParseSQLServerXML,
		EngineFormat: "XML",
		FromEngine:   viaDocument(FormatSQLServerXML, ParseSQLServerXML),
		Detect: func(doc string) bool {
			return strings.HasPrefix(strings.TrimSpace(doc), "<")
		},
	})
	MustRegister(Dialect{
		Name:         "mysql",
		Parse:        ParseMySQLJSON,
		EngineFormat: "MYSQL",
		FromEngine:   viaDocument(FormatMySQLJSON, ParseMySQLJSON),
		// MySQL's EXPLAIN FORMAT=JSON is a bare object whose single
		// top-level key is "query_block".
		Detect: func(doc string) bool {
			trimmed := strings.TrimSpace(doc)
			return strings.HasPrefix(trimmed, "{") && strings.Contains(trimmed, `"query_block"`)
		},
	})
}
