package sparql

import (
	"sort"
	"strings"
)

// GraphPattern is a node of the generalized graph-pattern operator tree
// (SPARQL 1.1 subset). A Query whose Where field is nil is a plain BGP and
// follows the paper's conjunctive pipeline unchanged; a non-nil Where
// dispatches the generalized evaluator, which classifies and decomposes the
// BGP leaves exactly as before (Theorem 5 / Algorithm 2) and folds the
// operators around them at the coordinator.
type GraphPattern interface {
	// patternNode is a marker restricting implementations to this package's
	// node set.
	patternNode()
	// appendPart renders the node as a group member (braced where the
	// grammar requires it) onto b, one line per element, prefixed by indent.
	appendPart(b *strings.Builder, indent string)
}

// BGP is a leaf: a conjunctive block of triple patterns. Consecutive plain
// triples in a group parse into a single BGP leaf so the leaf classifies and
// decomposes as one unit.
type BGP struct {
	Patterns []TriplePattern
}

// PathPattern is a leaf matching a property path between two vertex terms.
// Property variables cannot appear inside paths.
type PathPattern struct {
	S    Term
	Path *Path
	O    Term
}

// Optional wraps a pattern evaluated by left-outer join against everything
// folded before it in the enclosing group.
type Optional struct {
	Inner GraphPattern
}

// Union is the n-ary union of its arms with null-padded schema merge.
type Union struct {
	Arms []GraphPattern
}

// Group is an ordered sequence of parts folded left to right (Join for
// plain parts, LeftJoin for Optional parts), with FILTER constraints
// applied to the group's rows after the fold — the SPARQL 1.1 group
// translation.
type Group struct {
	Parts   []GraphPattern
	Filters []Expr
}

func (*BGP) patternNode()         {}
func (*PathPattern) patternNode() {}
func (*Optional) patternNode()    {}
func (*Union) patternNode()       {}
func (*Group) patternNode()       {}

// PathKind discriminates Path nodes.
type PathKind int

const (
	// PathIRI is an atomic property IRI.
	PathIRI PathKind = iota
	// PathAlt is an alternative p1|p2|...
	PathAlt
	// PathMod is a modified path: sub?, sub* or sub+.
	PathMod
)

// Path is a property-path expression over constant properties: an IRI, an
// alternative, or a modified sub-path.
type Path struct {
	Kind PathKind
	IRI  string  // PathIRI
	Alts []*Path // PathAlt, len >= 2
	Mod  byte    // PathMod: '?', '*' or '+'
	Sub  *Path   // PathMod
}

// String renders the path with the minimal parentheses that re-parse to the
// same tree.
func (p *Path) String() string {
	var b strings.Builder
	p.write(&b, false)
	return b.String()
}

func (p *Path) write(b *strings.Builder, parenAlt bool) {
	switch p.Kind {
	case PathIRI:
		b.WriteString(Const(p.IRI).String())
	case PathAlt:
		if parenAlt {
			b.WriteByte('(')
		}
		for i, a := range p.Alts {
			if i > 0 {
				b.WriteByte('|')
			}
			a.write(b, false)
		}
		if parenAlt {
			b.WriteByte(')')
		}
	case PathMod:
		p.Sub.write(b, true)
		b.WriteByte(p.Mod)
	}
}

func (p *Path) visitIRIs(f func(string)) {
	switch p.Kind {
	case PathIRI:
		f(p.IRI)
	case PathAlt:
		for _, a := range p.Alts {
			a.visitIRIs(f)
		}
	case PathMod:
		p.Sub.visitIRIs(f)
	}
}

// MatchesZeroLength reports whether the path admits zero-length matches
// (contains a top-level '?' or '*' modifier, or an alternative with such an
// arm).
func (p *Path) MatchesZeroLength() bool {
	switch p.Kind {
	case PathIRI:
		return false
	case PathAlt:
		for _, a := range p.Alts {
			if a.MatchesZeroLength() {
				return true
			}
		}
		return false
	case PathMod:
		return p.Mod == '?' || p.Mod == '*'
	}
	return false
}

// Clone returns a deep copy.
func (p *Path) Clone() *Path {
	c := &Path{Kind: p.Kind, IRI: p.IRI, Mod: p.Mod}
	if p.Sub != nil {
		c.Sub = p.Sub.Clone()
	}
	for _, a := range p.Alts {
		c.Alts = append(c.Alts, a.Clone())
	}
	return c
}

// String renders the pattern as it appears inside a group body.
func (bg *BGP) appendPart(b *strings.Builder, indent string) {
	for _, tp := range bg.Patterns {
		b.WriteString(indent)
		b.WriteString(tp.String())
		b.WriteByte('\n')
	}
}

func (pp *PathPattern) appendPart(b *strings.Builder, indent string) {
	b.WriteString(indent)
	b.WriteString(pp.S.String())
	b.WriteByte(' ')
	b.WriteString(pp.Path.String())
	b.WriteByte(' ')
	b.WriteString(pp.O.String())
	b.WriteString(" .\n")
}

func (o *Optional) appendPart(b *strings.Builder, indent string) {
	b.WriteString(indent)
	b.WriteString("OPTIONAL {\n")
	appendGroupBody(o.Inner, b, indent+"  ")
	b.WriteString(indent)
	b.WriteString("}\n")
}

func (u *Union) appendPart(b *strings.Builder, indent string) {
	b.WriteString(indent)
	for i, arm := range u.Arms {
		if i > 0 {
			b.WriteString(" UNION ")
		}
		b.WriteString("{\n")
		appendGroupBody(arm, b, indent+"  ")
		b.WriteString(indent)
		b.WriteString("}")
	}
	b.WriteByte('\n')
}

func (g *Group) appendPart(b *strings.Builder, indent string) {
	b.WriteString(indent)
	b.WriteString("{\n")
	appendGroupBody(g, b, indent+"  ")
	b.WriteString(indent)
	b.WriteString("}\n")
}

// appendGroupBody renders a pattern as the body of a braced group: a Group
// spreads its parts and filters; any other node renders as the sole part.
func appendGroupBody(p GraphPattern, b *strings.Builder, indent string) {
	g, ok := p.(*Group)
	if !ok {
		p.appendPart(b, indent)
		return
	}
	for _, part := range g.Parts {
		part.appendPart(b, indent)
	}
	for _, f := range g.Filters {
		b.WriteString(indent)
		b.WriteString("FILTER(")
		b.WriteString(f.String())
		b.WriteString(")\n")
	}
}

// patternVars accumulates every variable bound by the pattern (including
// property-position variables in BGP leaves) into seen.
func patternVars(p GraphPattern, seen map[string]bool) {
	switch n := p.(type) {
	case *BGP:
		for _, tp := range n.Patterns {
			for _, t := range []Term{tp.S, tp.P, tp.O} {
				if t.IsVar {
					seen[t.Value] = true
				}
			}
		}
	case *PathPattern:
		if n.S.IsVar {
			seen[n.S.Value] = true
		}
		if n.O.IsVar {
			seen[n.O.Value] = true
		}
	case *Optional:
		patternVars(n.Inner, seen)
	case *Union:
		for _, a := range n.Arms {
			patternVars(a, seen)
		}
	case *Group:
		for _, part := range n.Parts {
			patternVars(part, seen)
		}
	}
}

// PatternVars returns the distinct variables bound by the pattern, sorted.
// FILTER constraints do not bind variables and are excluded.
func PatternVars(p GraphPattern) []string {
	seen := map[string]bool{}
	patternVars(p, seen)
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// patternProperties accumulates constant properties (BGP predicates and
// path IRIs) into seen.
func patternProperties(p GraphPattern, seen map[string]bool) {
	switch n := p.(type) {
	case *BGP:
		for _, tp := range n.Patterns {
			if !tp.P.IsVar {
				seen[tp.P.Value] = true
			}
		}
	case *PathPattern:
		n.Path.visitIRIs(func(iri string) { seen[iri] = true })
	case *Optional:
		patternProperties(n.Inner, seen)
	case *Union:
		for _, a := range n.Arms {
			patternProperties(a, seen)
		}
	case *Group:
		for _, part := range n.Parts {
			patternProperties(part, seen)
		}
	}
}

// ClonePattern returns a deep copy of the pattern tree.
func ClonePattern(p GraphPattern) GraphPattern {
	switch n := p.(type) {
	case *BGP:
		return &BGP{Patterns: append([]TriplePattern(nil), n.Patterns...)}
	case *PathPattern:
		return &PathPattern{S: n.S, Path: n.Path.Clone(), O: n.O}
	case *Optional:
		return &Optional{Inner: ClonePattern(n.Inner)}
	case *Union:
		c := &Union{}
		for _, a := range n.Arms {
			c.Arms = append(c.Arms, ClonePattern(a))
		}
		return c
	case *Group:
		c := &Group{}
		for _, part := range n.Parts {
			c.Parts = append(c.Parts, ClonePattern(part))
		}
		for _, f := range n.Filters {
			c.Filters = append(c.Filters, f) // Exprs are immutable once built
		}
		return c
	}
	return nil
}

// OperatorClasses lists every value OperatorClass can return, in priority
// order; metrics registries use it to pre-resolve per-operator instruments.
var OperatorClasses = []string{"bgp", "optional", "union", "path", "filter"}

// OperatorClass buckets a query for metrics and benchmarks: "bgp" for plain
// conjunctive queries, otherwise the highest-priority operator present in
// the tree, in the fixed order optional > union > path > filter.
func (q *Query) OperatorClass() string {
	if q.Where == nil {
		return "bgp"
	}
	var hasOpt, hasUnion, hasPath, hasFilter bool
	var walk func(GraphPattern)
	walk = func(p GraphPattern) {
		switch n := p.(type) {
		case *Optional:
			hasOpt = true
			walk(n.Inner)
		case *Union:
			hasUnion = true
			for _, a := range n.Arms {
				walk(a)
			}
		case *PathPattern:
			hasPath = true
		case *Group:
			if len(n.Filters) > 0 {
				hasFilter = true
			}
			for _, part := range n.Parts {
				walk(part)
			}
		}
	}
	walk(q.Where)
	switch {
	case hasOpt:
		return "optional"
	case hasUnion:
		return "union"
	case hasPath:
		return "path"
	case hasFilter:
		return "filter"
	}
	return "bgp"
}
