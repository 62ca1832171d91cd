package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// small returns a config sized for unit tests.
func small() Config {
	return Config{Triples: 12000, K: 4, Epsilon: 0.1, Seed: 1, LogQueries: 60,
		Scales: []int{6000, 12000}}
}

func TestTable2Shape(t *testing.T) {
	rows, err := RunTable2(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 18 { // 6 datasets × 3 strategies
		t.Fatalf("rows = %d, want 18", len(rows))
	}
	byDataset := map[string]map[string]Table2Row{}
	for _, r := range rows {
		if byDataset[r.Dataset] == nil {
			byDataset[r.Dataset] = map[string]Table2Row{}
		}
		byDataset[r.Dataset][r.Strategy] = r
	}
	for ds, m := range byDataset {
		if m[StratMPC].LCross >= m[StratHash].LCross {
			t.Errorf("%s: MPC |L_cross| %d not below Subject_Hash %d",
				ds, m[StratMPC].LCross, m[StratHash].LCross)
		}
		if m[StratMPC].LCross >= m[StratMETIS].LCross {
			t.Errorf("%s: MPC |L_cross| %d not below METIS %d",
				ds, m[StratMPC].LCross, m[StratMETIS].LCross)
		}
	}
	var buf bytes.Buffer
	RenderTable2(&buf, rows)
	if !strings.Contains(buf.String(), "LUBM") {
		t.Fatal("render missing dataset names")
	}
}

func TestTable3Shape(t *testing.T) {
	rows, err := RunTable3(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.MPC < r.Plain {
			t.Errorf("%s: MPC %.3f below plain %.3f", r.Dataset, r.MPC, r.Plain)
		}
		if r.MPC < r.VP {
			t.Errorf("%s: MPC %.3f below VP %.3f", r.Dataset, r.MPC, r.VP)
		}
		if r.SubjHashPlus < r.Plain-1e-9 {
			t.Errorf("%s: Subject_Hash+ %.3f below plain %.3f (the + variant can only add IEQs)",
				r.Dataset, r.SubjHashPlus, r.Plain)
		}
		if r.Dataset == "LUBM" && r.MPC != 1.0 {
			t.Errorf("LUBM: MPC IEQ share %.3f, want 1.0", r.MPC)
		}
		if r.Dataset == "YAGO2" && (r.MPC != 1.0 || r.Plain != 0.0) {
			t.Errorf("YAGO2: MPC=%.2f plain=%.2f, want 1.0 and 0.0", r.MPC, r.Plain)
		}
	}
	var buf bytes.Buffer
	RenderTable3(&buf, rows)
	if !strings.Contains(buf.String(), "%") {
		t.Fatal("render missing percentages")
	}
}

func TestTable4Shape(t *testing.T) {
	rows, err := RunTable4(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("rows = %d, want 14", len(rows))
	}
	for _, r := range rows {
		// All LUBM queries are IEQs under MPC: join time must be zero.
		if r.JT != 0 {
			t.Errorf("%s: JT = %v, want 0 (IEQ)", r.Query, r.JT)
		}
		if !r.Class.IsIEQ() {
			t.Errorf("%s: class %v, want IEQ", r.Query, r.Class)
		}
	}
	// Low-selectivity LQ6 must produce plenty of results.
	for _, r := range rows {
		if r.Query == "LQ6" && r.Results < 100 {
			t.Errorf("LQ6 results = %d, expected a large result set", r.Results)
		}
	}
	var buf bytes.Buffer
	RenderStages(&buf, "Table IV", rows)
	if !strings.Contains(buf.String(), "LQ1") {
		t.Fatal("render missing queries")
	}
}

func TestTable5Shape(t *testing.T) {
	yago, bio, err := RunTable5(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(yago) != 4 || len(bio) != 5 {
		t.Fatalf("rows = %d/%d, want 4/5", len(yago), len(bio))
	}
	for _, r := range append(yago, bio...) {
		if r.JT != 0 {
			t.Errorf("%s: JT = %v, want 0", r.Query, r.JT)
		}
	}
}

func TestTable6Shape(t *testing.T) {
	rows, err := RunTable6(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 24 { // 6 datasets × 4 strategies
		t.Fatalf("rows = %d, want 24", len(rows))
	}
	for _, r := range rows {
		if r.Total != r.Partitioning+r.Loading {
			t.Errorf("%s/%s: total mismatch", r.Dataset, r.Strategy)
		}
		if r.Partitioning < 0 || r.Loading <= 0 {
			t.Errorf("%s/%s: nonpositive times", r.Dataset, r.Strategy)
		}
	}
	// Hash partitioning must not be drastically slower than MPC (at this
	// tiny scale both run in milliseconds, so allow generous noise).
	perDS := map[string]map[string]time.Duration{}
	for _, r := range rows {
		if perDS[r.Dataset] == nil {
			perDS[r.Dataset] = map[string]time.Duration{}
		}
		perDS[r.Dataset][r.Strategy] = r.Partitioning
	}
	for ds, m := range perDS {
		if m[StratHash] > 5*m[StratMPC]+20*time.Millisecond {
			t.Errorf("%s: Subject_Hash partitioning %v far slower than MPC %v", ds, m[StratHash], m[StratMPC])
		}
	}
}

func TestTable7Shape(t *testing.T) {
	cfg := small()
	rows, err := RunTable7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	greedy, exact := rows[0], rows[1]
	if greedy.Strategy != "MPC" || exact.Strategy != "MPC-Exact" {
		t.Fatalf("strategies = %s/%s", greedy.Strategy, exact.Strategy)
	}
	if exact.LCross > greedy.LCross {
		t.Errorf("exact |L_cross| %d worse than greedy %d", exact.LCross, greedy.LCross)
	}
	if greedy.LCross-exact.LCross > 2 {
		t.Errorf("greedy %d vs exact %d: gap larger than the paper's ~1", greedy.LCross, exact.LCross)
	}
}

func TestFig7Shape(t *testing.T) {
	rows, err := RunFig7(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14+4+5 {
		t.Fatalf("rows = %d, want 23", len(rows))
	}
	// On non-star queries, MPC must beat the star-only baselines overall.
	var mpcTotal, hashTotal time.Duration
	for _, r := range rows {
		if r.Star {
			continue
		}
		mpcTotal += r.Times[StratMPC]
		hashTotal += r.Times[StratHash]
	}
	if mpcTotal >= hashTotal {
		t.Errorf("non-star total: MPC %v not below Subject_Hash %v", mpcTotal, hashTotal)
	}
	var buf bytes.Buffer
	RenderFig7(&buf, rows)
	if !strings.Contains(buf.String(), "YQ1") {
		t.Fatal("render missing YAGO2 queries")
	}
}

func TestFig8Shape(t *testing.T) {
	rows, err := RunFig8(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 3 datasets × 4 strategies
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	byDS := map[string]map[string]Fig8Row{}
	for _, r := range rows {
		if r.Min > r.Q1 || r.Q1 > r.Median || r.Median > r.Q3 || r.Q3 > r.Max {
			t.Errorf("%s/%s: five-number summary not monotone", r.Dataset, r.Strategy)
		}
		if byDS[r.Dataset] == nil {
			byDS[r.Dataset] = map[string]Fig8Row{}
		}
		byDS[r.Dataset][r.Strategy] = r
	}
	// MPC's tail (Q3) should not exceed Subject_Hash's on DBpedia and LGD,
	// where it localizes far more queries.
	for _, ds := range []string{"DBpedia", "LGD"} {
		if byDS[ds][StratMPC].Q3 > byDS[ds][StratHash].Q3 {
			t.Errorf("%s: MPC Q3 %v above Subject_Hash %v",
				ds, byDS[ds][StratMPC].Q3, byDS[ds][StratHash].Q3)
		}
	}
}

func TestScalabilityShape(t *testing.T) {
	rows, err := RunScalability(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 datasets × 2 scales
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	// Partitioning time grows with scale but stays sane.
	for i := 1; i < len(rows); i++ {
		if rows[i].Dataset == rows[i-1].Dataset && rows[i].Triples <= rows[i-1].Triples {
			t.Errorf("scales not increasing: %v then %v", rows[i-1], rows[i])
		}
	}
	var buf bytes.Buffer
	RenderScalability(&buf, rows)
	if !strings.Contains(buf.String(), "LUBM") {
		t.Fatal("render incomplete")
	}
}

func TestFig11Shape(t *testing.T) {
	rows, err := RunFig11(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no Fig. 11 rows")
	}
	// Aggregate partial matches per strategy: MPC must ship the fewest.
	totals := map[string]int{}
	for _, r := range rows {
		totals[r.Strategy] += r.PartialMatches
	}
	if totals[StratMPC] > totals[StratHash] {
		t.Errorf("MPC partial matches %d above Subject_Hash %d",
			totals[StratMPC], totals[StratHash])
	}
	var buf bytes.Buffer
	RenderFig11(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestAblationSelectors(t *testing.T) {
	rows, err := RunAblationSelectors(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 6 {
		t.Fatalf("rows = %d, want >= 6", len(rows))
	}
	// Exact (when present) must have |L_in| >= forward greedy on the same
	// dataset.
	byDS := map[string]map[string]AblationSelectorRow{}
	for _, r := range rows {
		if byDS[r.Dataset] == nil {
			byDS[r.Dataset] = map[string]AblationSelectorRow{}
		}
		byDS[r.Dataset][r.Selector] = r
	}
	if ex, ok := byDS["LUBM"]["exact"]; ok {
		if ex.LIn < byDS["LUBM"]["greedy"].LIn {
			t.Errorf("exact |L_in| %d below greedy %d", ex.LIn, byDS["LUBM"]["greedy"].LIn)
		}
	} else {
		t.Error("exact selector missing for LUBM")
	}
	var buf bytes.Buffer
	RenderAblationSelectors(&buf, rows)
	if !strings.Contains(buf.String(), "greedy") {
		t.Fatal("render incomplete")
	}
}

func TestAblationDSF(t *testing.T) {
	rows, err := RunAblationDSF(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if rows[0].LIn != rows[1].LIn {
		t.Errorf("optimized and naive selectors disagree: %d vs %d", rows[0].LIn, rows[1].LIn)
	}
	if rows[0].SelectTime >= rows[1].SelectTime {
		t.Errorf("rollback-DSF (%v) not faster than naive (%v)",
			rows[0].SelectTime, rows[1].SelectTime)
	}
}

func TestAblationKHop(t *testing.T) {
	rows, err := RunAblationKHop(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 2 datasets × 3 radii
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	byDS := map[string][]AblationKHopRow{}
	for _, r := range rows {
		byDS[r.Dataset] = append(byDS[r.Dataset], r)
	}
	for ds, rs := range byDS {
		for i := 1; i < len(rs); i++ {
			if rs[i].ReplicationRatio < rs[i-1].ReplicationRatio {
				t.Errorf("%s: replication ratio shrank with more hops", ds)
			}
		}
		if rs[len(rs)-1].ReplicationRatio <= rs[0].ReplicationRatio {
			t.Errorf("%s: 3-hop replication %f not above 1-hop %f",
				ds, rs[len(rs)-1].ReplicationRatio, rs[0].ReplicationRatio)
		}
	}
	var buf bytes.Buffer
	RenderAblationKHop(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestAblationSemijoin(t *testing.T) {
	rows, err := RunAblationSemijoin(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	shipped := map[string]map[bool]int{}
	for _, r := range rows {
		if shipped[r.Strategy] == nil {
			shipped[r.Strategy] = map[bool]int{}
		}
		shipped[r.Strategy][r.Semijoin] = r.TuplesShipped
	}
	for strat, m := range shipped {
		if m[true] > m[false] {
			t.Errorf("%s: semijoin shipped more tuples (%d > %d)", strat, m[true], m[false])
		}
	}
	// MPC ships far fewer tuples than plain Subject_Hash even without the
	// run-time patch — it avoids most joins by construction.
	if shipped[StratMPC][false] >= shipped[StratHash][false] {
		t.Errorf("MPC plain shipped %d, Subject_Hash plain %d — expected MPC below",
			shipped[StratMPC][false], shipped[StratHash][false])
	}
	var buf bytes.Buffer
	RenderAblationSemijoin(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestAblationWeighted(t *testing.T) {
	rows, err := RunAblationWeighted(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	unweighted, weighted := rows[0], rows[1]
	if weighted.IEQShare < unweighted.IEQShare-1e-9 {
		t.Errorf("weighted IEQ share %.3f below unweighted %.3f",
			weighted.IEQShare, unweighted.IEQShare)
	}
	var buf bytes.Buffer
	RenderAblationWeighted(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestAblationLocalize(t *testing.T) {
	rows, err := RunAblationLocalize(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if rows[0].Localize || !rows[1].Localize {
		t.Fatal("row order: broadcast first, localized second")
	}
	if rows[0].Queries == 0 || rows[0].Queries != rows[1].Queries {
		t.Fatalf("queries = %d/%d, want equal and nonzero", rows[0].Queries, rows[1].Queries)
	}
	for i, a := range rows[0].answers {
		if a != rows[1].answers[i] {
			t.Fatalf("query %d: localized answer differs from broadcast", i)
		}
	}
	if rows[1].SiteCalls >= rows[0].SiteCalls {
		t.Fatalf("localized arm made %d site calls, broadcast %d: want fewer", rows[1].SiteCalls, rows[0].SiteCalls)
	}
	var buf bytes.Buffer
	RenderAblationLocalize(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestAblationEpsilonK(t *testing.T) {
	rows, err := RunAblationEpsilonK(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	// For fixed ε, |L_cross| must not decrease as k grows.
	byEps := map[float64][]AblationEpsilonKRow{}
	for _, r := range rows {
		byEps[r.Epsilon] = append(byEps[r.Epsilon], r)
	}
	for eps, rs := range byEps {
		for i := 1; i < len(rs); i++ {
			if rs[i].LCross < rs[i-1].LCross {
				t.Errorf("ε=%.2f: |L_cross| dropped from %d (k=%d) to %d (k=%d)",
					eps, rs[i-1].LCross, rs[i-1].K, rs[i].LCross, rs[i].K)
			}
		}
	}
}
