package pool

import (
	"fmt"
	"slices"
	"strings"
)

// Placeholder names used in natural-language templates. RULE-LANTERN
// substitutes these from the attributes of plan nodes.
const (
	PhR1    = "$R1$"    // input relation (the hashed/right one for binary ops)
	PhR2    = "$R2$"    // second input relation for binary ops
	PhCond  = "$cond$"  // join condition or filter condition
	PhGroup = "$group$" // grouping attributes
	PhSort  = "$sort$"  // sort keys
	PhIndex = "$index$" // index column / name
)

// ComposeTemplate realizes the COMPOSE statement: it builds the natural
// language description template for an operator or an (auxiliary, critical)
// operator pair, via the composition operator ∘ of paper §5.4
// (aux ∘ critical = aux.label ∧ critical.label, rendered as "... and ...").
// names is either {operator} or {auxiliary, critical}; using maps an
// operator name to the description it must use, and an operator it leaves
// out draws one of its descriptions at random.
func (ix *Index) ComposeTemplate(source string, names []string, using map[string]string) (string, error) {
	o, err := ix.Lookup(source, names[0])
	if err != nil {
		return "", err
	}
	if len(names) == 1 {
		return ix.template(o, using[o.Name])
	}
	crit, err := ix.Lookup(source, names[1])
	if err != nil {
		return "", err
	}
	// The left operand must be the auxiliary node (the composition
	// operator is neither associative nor commutative — §5.4).
	if !ix.aux[source][o.Name][crit.Name] {
		return "", fmt.Errorf("pool: %q is not an auxiliary operator of %q", o.Name, crit.Name)
	}
	auxT, err := ix.template(o, using[o.Name])
	if err != nil {
		return "", err
	}
	critT, err := ix.template(crit, using[crit.Name])
	if err != nil {
		return "", err
	}
	return auxT + " and " + critT, nil
}

// template picks one of an operator's description templates: the one
// whose description is want, else the only one, else a random draw.
func (ix *Index) template(o *Object, want string) (string, error) {
	i := 0
	switch {
	case len(o.Descs) == 0:
		return "", fmt.Errorf("pool: operator %s.%s has no description", o.Source, o.Name)
	case want != "":
		i = slices.IndexFunc(o.Descs, func(d string) bool { return strings.TrimSpace(d) == want })
		if i < 0 {
			return "", fmt.Errorf("pool: operator %s.%s has no description %q", o.Source, o.Name, want)
		}
	case len(o.Descs) > 1:
		ix.rng.Lock()
		i = ix.rng.Intn(len(o.Descs))
		ix.rng.Unlock()
	}
	return o.templates[i], nil
}

// complete renders one description as a template. When the description
// embeds placeholders it is used verbatim; otherwise the TYPE and COND
// attributes complete it (see the package comment for the conventions).
func (o *Object) complete(desc string) string {
	desc = strings.TrimSpace(desc)
	if strings.Contains(desc, "$") {
		return desc
	}
	switch o.Type {
	case "binary":
		desc += " on " + PhR2 + " and " + PhR1
		if o.Cond {
			desc += " on condition " + PhCond
		}
	default: // unary
		desc += " on " + PhR1
		if o.Cond {
			desc += " and filtering on " + PhCond
		}
	}
	return desc
}

// FillTemplate substitutes placeholder values into a template. Placeholders
// with no value cause their clause to be dropped: the clause is the span
// from the nearest preceding clause delimiter (" and ", " with ", " using ",
// " on condition ") through the end of the placeholder's phrase (the next
// delimiter or end of string). This is how "perform sequential scan on
// $R1$ and filtering on $cond$" degrades gracefully to "perform sequential
// scan on publication" when a scan has no filter.
func FillTemplate(tpl string, vals map[string]string) string {
	delims := []string{" and ", " with ", " using ", " on condition "}
	out := tpl
	cursor := 0 // never rescan substituted values (they may contain '$')
	for {
		rel := strings.Index(out[cursor:], "$")
		if rel < 0 {
			break
		}
		start := cursor + rel
		end := strings.Index(out[start+1:], "$")
		if end < 0 {
			break
		}
		end = start + 1 + end
		name := out[start+1 : end]
		if v, ok := vals[name]; ok && v != "" {
			out = out[:start] + v + out[end+1:]
			cursor = start + len(v)
			continue
		}
		// Drop the clause containing the unfilled placeholder.
		clauseStart := 0
		for _, d := range delims {
			if i := strings.LastIndex(out[:start], d); i > clauseStart {
				clauseStart = i
			}
		}
		clauseEnd := len(out)
		for _, d := range delims {
			if i := strings.Index(out[end+1:], d); i >= 0 && end+1+i < clauseEnd {
				clauseEnd = end + 1 + i
			}
		}
		if clauseStart == 0 {
			// The placeholder sits in the head clause: just excise the
			// placeholder and any dangling preposition before it.
			head := strings.TrimRight(out[:start], " ")
			for _, prep := range []string{" on", " by"} {
				head = strings.TrimSuffix(head, prep)
			}
			out = head + out[end+1:]
			cursor = len(head)
			continue
		}
		out = out[:clauseStart] + out[clauseEnd:]
		cursor = clauseStart
	}
	return strings.Join(strings.Fields(out), " ")
}
