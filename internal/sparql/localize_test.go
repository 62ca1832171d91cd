package sparql

import (
	"testing"
)

func TestLocalizableTermsInternal(t *testing.T) {
	q := MustParse(`SELECT * WHERE { <u1> <p1> ?x . ?x <p2> <u2> }`)
	terms := Analyze(q, crossingSet()).LocalizableTerms()
	if len(terms) != 2 {
		t.Fatalf("terms = %v, want both constants", terms)
	}
}

func TestLocalizableTermsTypeI(t *testing.T) {
	// Cycle closed by a crossing edge: Type-I, all constants localizable.
	q := MustParse(`SELECT * WHERE {
		<u> <p1> ?y . ?y <p2> ?z . <u> <p3> ?z . ?z <cross> ?y }`)
	if c := Classify(q, crossingSet("cross")); c != ClassTypeI {
		t.Fatalf("class = %v", c)
	}
	terms := Analyze(q, crossingSet("cross")).LocalizableTerms()
	if len(terms) != 1 || terms[0].Value != "u" {
		t.Fatalf("terms = %v, want [u]", terms)
	}
}

func TestLocalizableTermsTypeIICore(t *testing.T) {
	// Core {?x, u} connected by p1; satellite constant <sat> hangs off a
	// crossing edge and must NOT be localizable.
	q := MustParse(`SELECT * WHERE {
		?x <p1> <u> . ?x <cross> <sat> }`)
	if c := Classify(q, crossingSet("cross")); c != ClassTypeII {
		t.Fatalf("class = %v", c)
	}
	terms := Analyze(q, crossingSet("cross")).LocalizableTerms()
	if len(terms) != 1 || terms[0].Value != "u" {
		t.Fatalf("terms = %v, want only the core constant u", terms)
	}
}

func TestLocalizableTermsStarCenter(t *testing.T) {
	// Star of crossing edges around a constant center: all singletons, the
	// center is the core.
	q := MustParse(`SELECT * WHERE { <c> <cross> ?a . <c> <cross> ?b }`)
	if cl := Classify(q, crossingSet("cross")); cl != ClassTypeII {
		t.Fatalf("class = %v", cl)
	}
	terms := Analyze(q, crossingSet("cross")).LocalizableTerms()
	if len(terms) != 1 || terms[0].Value != "c" {
		t.Fatalf("terms = %v, want [c]", terms)
	}
}

func TestLocalizableTermsStarSatelliteConstant(t *testing.T) {
	// Constant on the satellite side of a crossing star: not localizable.
	q := MustParse(`SELECT * WHERE { ?c <cross> <leaf> . ?c <cross> ?b }`)
	terms := Analyze(q, crossingSet("cross")).LocalizableTerms()
	if len(terms) != 0 {
		t.Fatalf("terms = %v, want none (satellite constants bind replicas)", terms)
	}
}

func TestLocalizableTermsNonIEQ(t *testing.T) {
	q := MustParse(`SELECT * WHERE { <a> <p1> ?b . ?c <p2> <d> . ?b <cross> ?c }`)
	if Classify(q, crossingSet("cross")) != ClassNonIEQ {
		t.Fatal("fixture should be non-IEQ")
	}
	if terms := Analyze(q, crossingSet("cross")).LocalizableTerms(); terms != nil {
		t.Fatalf("terms = %v, want nil for non-IEQ", terms)
	}
}

func TestLocalizableTermsNoConstants(t *testing.T) {
	q := MustParse(`SELECT * WHERE { ?x <p1> ?y . ?y <p2> ?z }`)
	if terms := Analyze(q, crossingSet()).LocalizableTerms(); len(terms) != 0 {
		t.Fatalf("terms = %v, want none", terms)
	}
}

func TestLocalizableTermsSingleCrossingEdge(t *testing.T) {
	// Both endpoints of one crossing edge are star centers (the edge is
	// replicated at both homes). The constant one must be chosen, every
	// time: the choice once followed map iteration order.
	for _, qs := range []string{
		`SELECT * WHERE { ?x <cross> <c> }`,
		`SELECT * WHERE { <c> <cross> ?x }`,
	} {
		q := MustParse(qs)
		for i := 0; i < 20; i++ {
			terms := Analyze(q, crossingSet("cross")).LocalizableTerms()
			if len(terms) != 1 || terms[0].Value != "c" {
				t.Fatalf("%s: terms = %v, want [c]", qs, terms)
			}
		}
	}
}

func TestAnchor(t *testing.T) {
	cases := []struct {
		query, want string
	}{
		// Internal and Type-I: the first vertex variable.
		{`SELECT * WHERE { <u1> <p1> ?x . ?x <p2> ?y }`, "x"},
		{`SELECT * WHERE { <u> <p1> ?y . ?y <p2> ?z . <u> <p3> ?z . ?z <cross> ?y }`, "y"},
		// Type-II: a core variable, never the satellite that comes first.
		{`SELECT * WHERE { ?s <cross> ?x . ?x <p1> ?y }`, "x"},
		{`SELECT * WHERE { ?x <p1> <u> . ?x <cross> <sat> }`, "x"},
		// All singletons: a variable centre; a constant-only core has none.
		{`SELECT * WHERE { ?f <cross> <v3> }`, "f"},
		{`SELECT * WHERE { ?c <cross> ?a . ?c <cross> ?b }`, "c"},
		{`SELECT * WHERE { <c> <cross> ?a . <c> <cross> ?b }`, ""},
		// Not an IEQ, or not weakly connected: no anchor.
		{`SELECT * WHERE { ?a <cross> ?b . ?b <cross> ?c . ?c <cross> ?d }`, ""},
		{`SELECT * WHERE { ?a <p1> ?b . ?c <p2> ?d }`, ""},
		{`SELECT * WHERE { <a> ?p <b> }`, ""},
	}
	for _, tc := range cases {
		if got := Analyze(MustParse(tc.query), crossingSet("cross")).Anchor(); got != tc.want {
			t.Errorf("%s: anchor %q, want %q", tc.query, got, tc.want)
		}
	}
}
