package sparql

import (
	"strings"
	"testing"
)

func TestParseOptional(t *testing.T) {
	q := MustParse(`SELECT * WHERE { ?x <p> ?y OPTIONAL { ?y <q> ?z } }`)
	if q.IsBGP() {
		t.Fatalf("OPTIONAL query parsed as plain BGP")
	}
	g, ok := q.Where.(*Group)
	if !ok {
		t.Fatalf("want Group root, got %T", q.Where)
	}
	if len(g.Parts) != 2 {
		t.Fatalf("want 2 parts, got %d", len(g.Parts))
	}
	if _, ok := g.Parts[0].(*BGP); !ok {
		t.Fatalf("part 0: want BGP, got %T", g.Parts[0])
	}
	opt, ok := g.Parts[1].(*Optional)
	if !ok {
		t.Fatalf("part 1: want Optional, got %T", g.Parts[1])
	}
	if _, ok := opt.Inner.(*BGP); !ok {
		t.Fatalf("optional inner: want BGP, got %T", opt.Inner)
	}
	if got := q.Vars(); !equalStrings(got, []string{"x", "y", "z"}) {
		t.Fatalf("Vars = %v", got)
	}
}

func TestParseUnion(t *testing.T) {
	q := MustParse(`SELECT ?x WHERE { { ?x <a> ?y } UNION { ?x <b> ?y } UNION { ?x <c> ?y } }`)
	u, ok := q.Where.(*Union)
	if !ok {
		t.Fatalf("want Union root (simplified single part), got %T", q.Where)
	}
	if len(u.Arms) != 3 {
		t.Fatalf("want 3 arms, got %d", len(u.Arms))
	}
}

func TestParseFilterAndExpr(t *testing.T) {
	q := MustParse(`SELECT * WHERE { ?x <p> ?y FILTER(?y != "3" && bound(?x) || !(?x = ?y)) }`)
	g, ok := q.Where.(*Group)
	if !ok {
		t.Fatalf("want Group root, got %T", q.Where)
	}
	if len(g.Filters) != 1 {
		t.Fatalf("want 1 filter, got %d", len(g.Filters))
	}
	if _, ok := g.Filters[0].(*ExprOr); !ok {
		t.Fatalf("want || at top (precedence), got %T", g.Filters[0])
	}
	// FILTER bound(?x) without parens is also legal.
	q2 := MustParse(`SELECT * WHERE { ?x <p> ?y FILTER bound(?x) }`)
	g2 := q2.Where.(*Group)
	if _, ok := g2.Filters[0].(*ExprBound); !ok {
		t.Fatalf("want bound builtin, got %T", g2.Filters[0])
	}
}

func TestParsePaths(t *testing.T) {
	cases := []struct {
		in   string
		kind PathKind
		mod  byte
	}{
		{`SELECT * WHERE { ?x <p>+ ?y }`, PathMod, '+'},
		{`SELECT * WHERE { ?x <p>* ?y }`, PathMod, '*'},
		{`SELECT * WHERE { ?x <p>? ?y }`, PathMod, '?'},
		{`SELECT * WHERE { ?x <p>|<q> ?y }`, PathAlt, 0},
		{`SELECT * WHERE { ?x (<p>|<q>)+ ?y }`, PathMod, '+'},
	}
	for _, tc := range cases {
		q := MustParse(tc.in)
		pp, ok := q.Where.(*PathPattern)
		if !ok {
			t.Fatalf("%s: want PathPattern root, got %T", tc.in, q.Where)
		}
		if pp.Path.Kind != tc.kind || pp.Path.Mod != tc.mod {
			t.Fatalf("%s: kind=%v mod=%q", tc.in, pp.Path.Kind, pp.Path.Mod)
		}
	}
	// A parenthesized single IRI is just that IRI (plain BGP).
	q := MustParse(`SELECT * WHERE { ?x (<p>) ?y }`)
	if !q.IsBGP() {
		t.Fatalf("(<p>) should lower to a plain pattern")
	}
	// Paths contribute to Properties().
	q = MustParse(`SELECT * WHERE { ?x (<b>|<a>)* ?y . ?x <c> ?z }`)
	if got := q.Properties(); !equalStrings(got, []string{"a", "b", "c"}) {
		t.Fatalf("Properties = %v", got)
	}
}

func TestParseGeneralizedRoundTrips(t *testing.T) {
	cases := []string{
		`SELECT * WHERE { ?x <p> ?y OPTIONAL { ?y <q> ?z } }`,
		`SELECT ?x WHERE { { ?x <a> ?y } UNION { ?x <b> ?y } }`,
		`SELECT * WHERE { ?x <p> ?y FILTER(?y < "10") }`,
		`SELECT * WHERE { ?x <p>+ ?y . ?y <q> ?z }`,
		`SELECT * WHERE { ?x (<p>|<q>)* ?y }`,
		`SELECT * WHERE { ?x <p> ?y OPTIONAL { ?y <q> ?z FILTER(bound(?x) && ?z != <v>) } . ?y <r> ?w }`,
		`SELECT * WHERE { { ?x <a> ?y OPTIONAL { ?x <b> ?w } } UNION { ?x <b> ?y . ?q <c> ?y } FILTER(?y >= 5) }`,
		`SELECT * WHERE { ?x <p>? ?y FILTER(!bound(?y) || ?x = ?y) }`,
	}
	for _, in := range cases {
		q, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("reparse of %q rendering failed: %v\nrendering:\n%s", in, err, q.String())
		}
		if q.String() != q2.String() {
			t.Fatalf("rendering not a fixpoint for %q:\n%s\nvs\n%s", in, q.String(), q2.String())
		}
	}
}

func TestParseErrorByteOffsets(t *testing.T) {
	cases := []struct {
		in     string
		offset string // "byte N" expected in the error
	}{
		{`SELECT ?x FROM { ?x <p> ?y }`, "byte 10"},     // FROM unsupported
		{`SELECT * WHERE { ?x foo:bar ?y }`, "byte 20"}, // unknown prefix
		{`SELECT * WHERE { ?x <p> ?y } junk`, "byte 29"},
		{`SELECT * WHERE { }`, "byte 17"},
		{`SELECT * WHERE { ?x <p> ?y`, "byte 26"}, // EOF offset = len(input)
	}
	for _, tc := range cases {
		_, err := Parse(tc.in)
		if err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", tc.in)
		}
		if !strings.Contains(err.Error(), tc.offset) {
			t.Errorf("Parse(%q) error %q does not mention %q", tc.in, err, tc.offset)
		}
	}
}

func TestParseExprStandalone(t *testing.T) {
	for _, in := range []string{
		`?x = ?y`,
		`?x != "a" && bound(?z)`,
		`!(?a < "3") || ?b >= ?c`,
		`bound(?x)`,
	} {
		e, err := ParseExpr(in)
		if err != nil {
			t.Fatalf("ParseExpr(%q): %v", in, err)
		}
		e2, err := ParseExpr(e.String())
		if err != nil {
			t.Fatalf("reparse of %q rendering %q: %v", in, e.String(), err)
		}
		if e.String() != e2.String() {
			t.Fatalf("expr rendering not a fixpoint: %q vs %q", e.String(), e2.String())
		}
	}
	if _, err := ParseExpr(`?x = ?y extra`); err == nil {
		t.Fatalf("trailing garbage accepted")
	}
}

func TestEvalExprSemantics(t *testing.T) {
	env := func(vals map[string]string) ExprEnv {
		return func(name string) (string, bool) {
			v, ok := vals[name]
			return v, ok
		}
	}
	mustExpr := func(s string) Expr {
		e, err := ParseExpr(s)
		if err != nil {
			t.Fatalf("ParseExpr(%q): %v", s, err)
		}
		return e
	}
	cases := []struct {
		expr    string
		vals    map[string]string
		val, ok bool
	}{
		{`?x = ?y`, map[string]string{"x": "a", "y": "a"}, true, true},
		{`?x = ?y`, map[string]string{"x": "a", "y": "b"}, false, true},
		{`?x = ?y`, map[string]string{"x": "a"}, false, false}, // unbound → error
		{`bound(?y)`, map[string]string{"x": "a"}, false, true},
		{`bound(?x)`, map[string]string{"x": "a"}, true, true},
		{`!bound(?y)`, map[string]string{}, true, true},
		// Numeric vs bytewise comparison.
		{`?x < ?y`, map[string]string{"x": `"9"`, "y": `"10"`}, true, true},
		{`?x < ?y`, map[string]string{"x": "b9", "y": "b10"}, false, true},
		{`?x = 5`, map[string]string{"x": `"5.0"`}, true, true},
		// Error propagation: false && error = false, true || error = true.
		{`?u = ?u && bound(?u)`, map[string]string{}, false, true},
		{`bound(?u) && ?u = ?u`, map[string]string{}, false, true},
		{`bound(?x) || ?u = ?u`, map[string]string{"x": "a"}, true, true},
		{`?u = ?u || bound(?u)`, map[string]string{}, false, false},
		{`!(?u = ?u)`, map[string]string{}, false, false},
	}
	for _, tc := range cases {
		val, ok := EvalExpr(mustExpr(tc.expr), env(tc.vals))
		if val != tc.val || ok != tc.ok {
			t.Errorf("EvalExpr(%q, %v) = (%v, %v), want (%v, %v)",
				tc.expr, tc.vals, val, ok, tc.val, tc.ok)
		}
	}
}

func TestOperatorClass(t *testing.T) {
	cases := []struct {
		in, class string
	}{
		{`SELECT * WHERE { ?x <p> ?y }`, "bgp"},
		{`SELECT * WHERE { ?x <p> ?y OPTIONAL { ?y <q> ?z } }`, "optional"},
		{`SELECT * WHERE { { ?x <a> ?y } UNION { ?x <b> ?y } }`, "union"},
		{`SELECT * WHERE { ?x <p>+ ?y }`, "path"},
		{`SELECT * WHERE { ?x <p> ?y FILTER(bound(?x)) }`, "filter"},
		{`SELECT * WHERE { { ?x <a>+ ?y } UNION { ?x <b> ?y } OPTIONAL { ?x <c> ?z } }`, "optional"},
	}
	for _, tc := range cases {
		if got := MustParse(tc.in).OperatorClass(); got != tc.class {
			t.Errorf("OperatorClass(%q) = %q, want %q", tc.in, got, tc.class)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
