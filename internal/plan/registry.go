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
// FORMAT keyword produces it. Adding an RDBMS to LANTERN is exactly what
// the paper promises: write a parser, register it here, and seed POOL
// descriptions for its operator vocabulary. For the engine to emit the
// format too, write its formatter beside the parser and give it a case in
// the engine's EXPLAIN switch.
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

// ExplainAndParse is the shared SQL round-trip path: it resolves the
// dialect, obtains the serialized plan by calling explain with the
// dialect's engine EXPLAIN FORMAT keyword, and parses the document back
// through the registered frontend — exactly how LANTERN consumes plans
// from a real RDBMS. For the substrate engine that is Format then Parse
// of one format in this package, which the round-trip tests pin as the
// identity for pg and native. Used by the CLI, the serving layer, and the
// corpus generator so dialect plumbing lives in one place.
func ExplainAndParse(dialect string, explain func(engineFormat string) (doc string, err error)) (*Node, string, error) {
	d, ok := Lookup(dialect)
	if !ok {
		return nil, "", fmt.Errorf("%w %q (registered: %s)",
			ErrUnknownDialect, dialect, strings.Join(Dialects(), ", "))
	}
	if d.EngineFormat == "" {
		return nil, "", fmt.Errorf("%w: %q accepts only pre-serialized plan documents", ErrNoEngineSerializer, dialect)
	}
	doc, err := explain(d.EngineFormat)
	if err != nil {
		return nil, "", err
	}
	tree, err := d.Parse(doc)
	return tree, doc, err
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
		Detect:       detectNative,
	})
	MustRegister(Dialect{
		Name:         "pg",
		Parse:        ParsePostgresJSON,
		EngineFormat: "JSON",
		// PostgreSQL's EXPLAIN (FORMAT JSON) is a one-element array.
		Detect: func(doc string) bool {
			return strings.HasPrefix(strings.TrimSpace(doc), "[")
		},
	})
	MustRegister(Dialect{
		Name:         "sqlserver",
		Parse:        ParseSQLServerXML,
		EngineFormat: "XML",
		Detect: func(doc string) bool {
			return strings.HasPrefix(strings.TrimSpace(doc), "<")
		},
	})
	MustRegister(Dialect{
		Name:         "mysql",
		Parse:        ParseMySQLJSON,
		EngineFormat: "MYSQL",
		// MySQL's EXPLAIN FORMAT=JSON is a bare object whose single
		// top-level key is "query_block".
		Detect: func(doc string) bool {
			trimmed := strings.TrimSpace(doc)
			return strings.HasPrefix(trimmed, "{") && strings.Contains(trimmed, `"query_block"`)
		},
	})
}
