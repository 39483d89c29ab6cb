package plan

import (
	"encoding/json"
	"fmt"
	"strings"
)

// The native dialect is the substrate engine's own plan serialization: a
// lossless JSON rendering of the vendor-neutral tree itself (operator name,
// estimates, canonical attributes, children), which the engine's
// EXPLAIN (FORMAT NATIVE) writes with FormatNative. Unlike the vendor
// formats it needs no vocabulary of its own, and it is the only dialect
// that carries every standardized actual-stats attribute (AttrActualRows,
// AttrLoops, AttrTimeMs, the worker and segment counts): an
// EXPLAIN (ANALYZE, FORMAT NATIVE) document narrates what actually
// happened, not just what the optimizer expected.
//
// The document shape is a single top-level object keyed "lantern_plan",
// which is what Detect keys on — no PostgreSQL EXPLAIN array, showplan XML
// document, or MySQL query_block object can be mistaken for it.

// nativeNode is one operator of the native serialization.
type nativeNode struct {
	Name     string            `json:"name"`
	Rows     float64           `json:"rows,omitempty"`
	Cost     float64           `json:"cost,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*nativeNode     `json:"children,omitempty"`
}

// nativeDoc is the document envelope.
type nativeDoc struct {
	Plan *nativeNode `json:"lantern_plan"`
}

// detectNative reports whether doc is a native plan document: a JSON
// object with a top-level "lantern_plan" key. The substring test is only
// a cheap prefilter — the decode confirms the key is genuinely top-level,
// so a foreign document that merely mentions "lantern_plan" inside some
// condition text (e.g. a MySQL attached_condition) is never claimed.
func detectNative(doc string) bool {
	trimmed := strings.TrimSpace(doc)
	if !strings.HasPrefix(trimmed, "{") || !strings.Contains(trimmed, `"lantern_plan"`) {
		return false
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal([]byte(trimmed), &probe); err != nil {
		return false
	}
	_, ok := probe["lantern_plan"]
	return ok
}

// FormatNative serializes a vendor-neutral tree as a native plan document.
// ParseNativeJSON inverts it exactly (up to the Source field, which the
// parser always sets to "native"), so a bridged tree survives the
// serialize→parse round-trip bit-identically.
func FormatNative(n *Node) (string, error) {
	if n == nil {
		return "", errNilTree
	}
	var conv func(x *Node) *nativeNode
	conv = func(x *Node) *nativeNode {
		nn := &nativeNode{Name: x.Name, Rows: x.Rows, Cost: x.Cost}
		if len(x.Attrs) > 0 {
			nn.Attrs = make(map[string]string, len(x.Attrs))
			for k, v := range x.Attrs {
				nn.Attrs[k] = v
			}
		}
		for _, c := range x.Children {
			nn.Children = append(nn.Children, conv(c))
		}
		return nn
	}
	b, err := json.MarshalIndent(nativeDoc{Plan: conv(n)}, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// ParseNativeJSON parses a native plan document into a vendor-neutral
// operator tree with Source = "native". Nesting depth is bounded by
// encoding/json's decoder limit, so adversarial documents fail with an
// error instead of exhausting the stack.
func ParseNativeJSON(doc string) (*Node, error) {
	var d nativeDoc
	if err := json.Unmarshal([]byte(doc), &d); err != nil {
		return nil, fmt.Errorf("plan: malformed native plan: %w", err)
	}
	if d.Plan == nil {
		return nil, fmt.Errorf(`plan: native plan lacks a "lantern_plan" object`)
	}
	var conv func(nn *nativeNode) *Node
	conv = func(nn *nativeNode) *Node {
		n := &Node{
			Name:   nn.Name,
			Source: "native",
			Rows:   nn.Rows,
			Cost:   nn.Cost,
		}
		for k, v := range nn.Attrs {
			n.SetAttr(k, v)
		}
		for _, c := range nn.Children {
			if c == nil {
				continue
			}
			n.Children = append(n.Children, conv(c))
		}
		return n
	}
	return conv(d.Plan), nil
}
