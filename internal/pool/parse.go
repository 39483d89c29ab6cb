package pool

import (
	"fmt"
	"strings"
	"unicode"
)

// The POOL grammar (paper §4.2):
//
//	CREATE POPERATOR <name> FOR <source> ( <ATTR> = <value> , ... )
//	SELECT <attr-list | *> FROM <source-list> [WHERE <conds>]
//	COMPOSE <name> [, <name>] FROM <source> [USING <name>.desc = '<desc>']
//	UPDATE <source> SET <attr> = <value> [, ...] [WHERE <conds>]
//
// where <value> is a string literal, null, a scalar (SELECT ...) subquery,
// or REPLACE(<value>, '<from>', '<to>'), and <conds> are AND-joined
// comparisons of attributes against strings or other attributes
// (=, <>, LIKE).

type poolStmt interface{ poolStmt() }

type createStmt struct {
	name   string
	source string
	attrs  map[string]string
	descs  []string
}

type dropStmt struct {
	name   string
	source string
}

func (*dropStmt) poolStmt() {}

type attrRef struct {
	qual string // source qualifier, may be ""
	name string
}

type condClause struct {
	lQual, lAttr string
	op           string // "=", "<>", "LIKE"
	rQual, rAttr string // attribute RHS (join condition) when rAttr != ""
	value        string // literal RHS otherwise
}

type sourceRef struct {
	source string
	alias  string // qualifier name; defaults to the source name
}

type selectStmt struct {
	star    bool
	attrs   []attrRef
	sources []sourceRef
	conds   []condClause
}

type composeStmt struct {
	names  []string
	source string
	using  map[string]string // operator name -> required desc
}

type setClause struct {
	attr  string
	value valueExpr
}

type updateStmt struct {
	source string
	sets   []setClause
	conds  []condClause
}

func (*createStmt) poolStmt()  {}
func (*selectStmt) poolStmt()  {}
func (*composeStmt) poolStmt() {}
func (*updateStmt) poolStmt()  {}

// valueExpr is the RHS of a SET clause.
type valueExpr interface{ valueExpr() }

type literalValue string

type subqueryValue struct{ query *selectStmt }

type replaceValue struct {
	inner    valueExpr
	from, to string
}

func (literalValue) valueExpr()   {}
func (*subqueryValue) valueExpr() {}
func (*replaceValue) valueExpr()  {}

// --- Tokenizer --------------------------------------------------------------

type ptoken struct {
	kind byte // 'w' word, 's' string, 'p' punct
	text string
}

func plex(src string) ([]ptoken, error) {
	var toks []ptoken
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			j := i + 1
			var sb strings.Builder
			for {
				if j >= len(src) {
					return nil, fmt.Errorf("pool: unterminated string literal")
				}
				if src[j] == '\'' {
					if j+1 < len(src) && src[j+1] == '\'' {
						sb.WriteByte('\'')
						j += 2
						continue
					}
					j++
					break
				}
				sb.WriteByte(src[j])
				j++
			}
			toks = append(toks, ptoken{kind: 's', text: sb.String()})
			i = j
		case unicode.IsLetter(rune(c)) || c == '_' || unicode.IsDigit(rune(c)):
			j := i
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			toks = append(toks, ptoken{kind: 'w', text: src[i:j]})
			i = j
		case c == '<' && i+1 < len(src) && src[i+1] == '>':
			toks = append(toks, ptoken{kind: 'p', text: "<>"})
			i += 2
		case strings.ContainsRune("(),=.;*", rune(c)):
			toks = append(toks, ptoken{kind: 'p', text: string(c)})
			i++
		default:
			return nil, fmt.Errorf("pool: unexpected character %q", c)
		}
	}
	return toks, nil
}

// --- Parser -----------------------------------------------------------------

type pparser struct {
	toks []ptoken
	pos  int
}

func parsePool(src string) (poolStmt, error) {
	toks, err := plex(src)
	if err != nil {
		return nil, err
	}
	p := &pparser{toks: toks}
	stmt, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	p.accept('p', ";")
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("pool: unexpected trailing input %q", p.peekText())
	}
	return stmt, nil
}

func (p *pparser) peekText() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos].text
	}
	return "<eof>"
}

// acceptKw consumes a word token matching kw case-insensitively.
func (p *pparser) acceptKw(kw string) bool {
	if p.pos < len(p.toks) && p.toks[p.pos].kind == 'w' && strings.EqualFold(p.toks[p.pos].text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *pparser) accept(kind byte, text string) bool {
	if p.pos < len(p.toks) && p.toks[p.pos].kind == kind && p.toks[p.pos].text == text {
		p.pos++
		return true
	}
	return false
}

func (p *pparser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return fmt.Errorf("pool: expected %s, got %q", kw, p.peekText())
	}
	return nil
}

func (p *pparser) expectPunct(t string) error {
	if !p.accept('p', t) {
		return fmt.Errorf("pool: expected %q, got %q", t, p.peekText())
	}
	return nil
}

func (p *pparser) word() (string, error) {
	if p.pos < len(p.toks) && p.toks[p.pos].kind == 'w' {
		w := strings.ToLower(p.toks[p.pos].text)
		p.pos++
		return w, nil
	}
	return "", fmt.Errorf("pool: expected identifier, got %q", p.peekText())
}

func (p *pparser) stringLit() (string, error) {
	if p.pos < len(p.toks) && p.toks[p.pos].kind == 's' {
		s := p.toks[p.pos].text
		p.pos++
		return s, nil
	}
	return "", fmt.Errorf("pool: expected string literal, got %q", p.peekText())
}

func (p *pparser) parseStmt() (poolStmt, error) {
	switch {
	case p.acceptKw("CREATE"):
		return p.parseCreate()
	case p.acceptKw("SELECT"):
		return p.parseSelect()
	case p.acceptKw("COMPOSE"):
		return p.parseCompose()
	case p.acceptKw("UPDATE"):
		return p.parseUpdate()
	case p.acceptKw("DROP"):
		return p.parseDrop()
	}
	return nil, fmt.Errorf("pool: expected CREATE, SELECT, COMPOSE, UPDATE or DROP, got %q", p.peekText())
}

// parseOperator parses "POPERATOR <name> FOR <source>", the head of CREATE
// and DROP.
func (p *pparser) parseOperator() (name, source string, err error) {
	if err := p.expectKw("POPERATOR"); err != nil {
		return "", "", err
	}
	if name, err = p.word(); err != nil {
		return "", "", err
	}
	if err := p.expectKw("FOR"); err != nil {
		return "", "", err
	}
	source, err = p.word()
	return name, source, err
}

func (p *pparser) parseCreate() (poolStmt, error) {
	name, source, err := p.parseOperator()
	if err != nil {
		return nil, err
	}
	st := &createStmt{name: name, source: source, attrs: map[string]string{}}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		attr, err := p.word()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		var val string
		isNull := false
		if p.acceptKw("null") {
			isNull = true
		} else {
			val, err = p.stringLit()
			if err != nil {
				return nil, err
			}
			val = strings.TrimSpace(val)
		}
		switch attr {
		case "desc":
			if !isNull {
				st.descs = append(st.descs, val)
			}
		case "alias", "type", "defn", "cond", "target":
			if !isNull {
				st.attrs[attr] = val
			}
		default:
			return nil, fmt.Errorf("pool: unknown attribute %q in CREATE POPERATOR", attr)
		}
		if !p.accept('p', ",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *pparser) parseDrop() (poolStmt, error) {
	name, source, err := p.parseOperator()
	if err != nil {
		return nil, err
	}
	return &dropStmt{name: name, source: source}, nil
}

// parseAttrRef parses attr or source.attr (also source.*).
func (p *pparser) parseAttrRef() (attrRef, bool, error) {
	if p.accept('p', "*") {
		return attrRef{}, true, nil
	}
	w, err := p.word()
	if err != nil {
		return attrRef{}, false, err
	}
	if p.accept('p', ".") {
		if p.accept('p', "*") {
			return attrRef{qual: w}, true, nil
		}
		a, err := p.word()
		if err != nil {
			return attrRef{}, false, err
		}
		return attrRef{qual: w, name: a}, false, nil
	}
	return attrRef{name: w}, false, nil
}

func (p *pparser) parseSelect() (*selectStmt, error) {
	st := &selectStmt{}
	for {
		ref, star, err := p.parseAttrRef()
		if err != nil {
			return nil, err
		}
		if star {
			st.star = true
		} else {
			st.attrs = append(st.attrs, ref)
		}
		if !p.accept('p', ",") {
			break
		}
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	for {
		src, err := p.word()
		if err != nil {
			return nil, err
		}
		ref := sourceRef{source: src, alias: src}
		// Optional "AS alias": the alias becomes the qualifier name.
		if p.acceptKw("AS") {
			alias, err := p.word()
			if err != nil {
				return nil, err
			}
			ref.alias = alias
		}
		st.sources = append(st.sources, ref)
		if !p.accept('p', ",") {
			break
		}
	}
	if p.acceptKw("WHERE") {
		conds, err := p.parseConds()
		if err != nil {
			return nil, err
		}
		st.conds = conds
	}
	return st, nil
}

func (p *pparser) parseConds() ([]condClause, error) {
	var out []condClause
	for {
		ref, star, err := p.parseAttrRef()
		if err != nil {
			return nil, err
		}
		if star {
			return nil, fmt.Errorf("pool: * not allowed in WHERE")
		}
		c := condClause{lQual: ref.qual, lAttr: ref.name}
		switch {
		case p.accept('p', "="):
			c.op = "="
		case p.accept('p', "<>"):
			c.op = "<>"
		case p.acceptKw("LIKE"):
			c.op = "LIKE"
		default:
			return nil, fmt.Errorf("pool: expected =, <> or LIKE, got %q", p.peekText())
		}
		if p.pos < len(p.toks) && p.toks[p.pos].kind == 's' {
			c.value, _ = p.stringLit()
		} else {
			rref, star, err := p.parseAttrRef()
			if err != nil {
				return nil, err
			}
			if star {
				return nil, fmt.Errorf("pool: * not allowed in WHERE")
			}
			c.rQual, c.rAttr = rref.qual, rref.name
		}
		out = append(out, c)
		if !p.acceptKw("AND") {
			return out, nil
		}
	}
}

func (p *pparser) parseCompose() (poolStmt, error) {
	st := &composeStmt{using: map[string]string{}}
	for {
		name, err := p.word()
		if err != nil {
			return nil, err
		}
		st.names = append(st.names, name)
		if !p.accept('p', ",") {
			break
		}
	}
	if len(st.names) > 2 {
		return nil, fmt.Errorf("pool: COMPOSE accepts at most an (auxiliary, critical) pair")
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	source, err := p.word()
	if err != nil {
		return nil, err
	}
	st.source = source
	if p.acceptKw("USING") {
		for {
			name, err := p.word()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("."); err != nil {
				return nil, err
			}
			attr, err := p.word()
			if err != nil {
				return nil, err
			}
			if attr != "desc" {
				return nil, fmt.Errorf("pool: USING may only constrain desc, got %q", attr)
			}
			if err := p.expectPunct("="); err != nil {
				return nil, err
			}
			val, err := p.stringLit()
			if err != nil {
				return nil, err
			}
			st.using[name] = strings.TrimSpace(val)
			if !p.acceptKw("AND") {
				break
			}
		}
	}
	return st, nil
}

func (p *pparser) parseUpdate() (poolStmt, error) {
	source, err := p.word()
	if err != nil {
		return nil, err
	}
	st := &updateStmt{source: source}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	for {
		attr, err := p.word()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		val, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		st.sets = append(st.sets, setClause{attr: attr, value: val})
		if !p.accept('p', ",") {
			break
		}
	}
	if p.acceptKw("WHERE") {
		conds, err := p.parseConds()
		if err != nil {
			return nil, err
		}
		st.conds = conds
	}
	return st, nil
}

func (p *pparser) parseValue() (valueExpr, error) {
	if p.pos < len(p.toks) && p.toks[p.pos].kind == 's' {
		s, _ := p.stringLit()
		return literalValue(strings.TrimSpace(s)), nil
	}
	if p.acceptKw("REPLACE") {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		inner, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		from, err := p.stringLit()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		to, err := p.stringLit()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &replaceValue{inner: inner, from: strings.TrimSpace(from), to: strings.TrimSpace(to)}, nil
	}
	if p.accept('p', "(") {
		if !p.acceptKw("SELECT") {
			return nil, fmt.Errorf("pool: expected SELECT in subquery, got %q", p.peekText())
		}
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &subqueryValue{query: sub}, nil
	}
	return nil, fmt.Errorf("pool: expected value expression, got %q", p.peekText())
}
