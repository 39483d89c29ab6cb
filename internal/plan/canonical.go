package plan

import (
	"io"
	"slices"
	"sort"
)

// AppendCanonical appends a stable, structure-preserving serialization of
// the tree to dst and returns the extended buffer: operator names,
// sources, and attributes (in sorted key order) with explicit nesting
// markers. Two trees produce the same bytes iff they have the same shape,
// operators, and attribute values — the property the serving layer's plan
// fingerprinter is built on. Cardinality and cost estimates are
// deliberately excluded: they vary with statistics but never change the
// narration text. AttrTimeMs is excluded for the same reason — it varies
// run to run while the narrated actuals (rows, loops) do not, so including
// it would make actuals-annotated plans uncacheable.
func (n *Node) AppendCanonical(dst []byte) []byte {
	if n == nil {
		return dst
	}
	dst = append(dst, '(')
	dst = append(dst, n.Source...)
	dst = append(dst, '\x1f')
	dst = append(dst, n.Name...)
	// A node carries a dozen attributes at most; sorting their keys in a
	// stack array keeps the serialization allocation-free.
	var stack [16]string
	keys := stack[:0]
	for k := range n.Attrs {
		if k != AttrTimeMs {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		dst = append(dst, '\x1f')
		dst = append(dst, k...)
		dst = append(dst, '=')
		dst = append(dst, n.Attrs[k]...)
	}
	for _, c := range n.Children {
		dst = c.AppendCanonical(dst)
	}
	return append(dst, ')')
}

// WriteCanonical writes the tree's AppendCanonical serialization to w.
func (n *Node) WriteCanonical(w io.Writer) {
	w.Write(n.AppendCanonical(nil))
}

// OperatorSet returns the distinct canonical operator names (Canon applied)
// appearing in the tree, sorted. The serving cache records this set per
// entry so a POOL mutation of one operator invalidates only the narrations
// that mention it.
func (n *Node) OperatorSet() []string {
	seen := make(map[string]bool)
	n.Walk(func(x *Node) { seen[Canon(x.Name)] = true })
	out := make([]string, 0, len(seen))
	for op := range seen {
		out = append(out, op)
	}
	sort.Strings(out)
	return out
}
