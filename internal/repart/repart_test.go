package repart

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"mpc/internal/cluster"
	"mpc/internal/core"
	"mpc/internal/datagen"
	"mpc/internal/partition"
	"mpc/internal/rdf"
)

func TestPolicyDue(t *testing.T) {
	cases := []struct {
		name string
		pol  Policy
		rep  cluster.DriftReport
		due  bool
	}{
		{"all disabled", Policy{}, cluster.DriftReport{CapViolations: 5, CrossingEdges: 1 << 20}, false},
		{"cap under threshold", Policy{MaxCapViolations: 2}, cluster.DriftReport{CapViolations: 1}, false},
		{"cap at threshold", Policy{MaxCapViolations: 2}, cluster.DriftReport{CapViolations: 2}, true},
		{"growth under ratio", Policy{CrossGrowthRatio: 1.5},
			cluster.DriftReport{CrossingEdges: 149, CrossingEdgesBase: 100}, false},
		{"growth over ratio", Policy{CrossGrowthRatio: 1.5},
			cluster.DriftReport{CrossingEdges: 151, CrossingEdgesBase: 100}, true},
		{"growth with zero base", Policy{CrossGrowthRatio: 1.5},
			cluster.DriftReport{CrossingEdges: 2, CrossingEdgesBase: 0}, true},
		{"wcc under skew", Policy{MaxWCCSkew: 2},
			cluster.DriftReport{PartSizes: []int{50, 50}, MaxPropertyWCC: 99}, false},
		{"wcc over skew", Policy{MaxWCCSkew: 2},
			cluster.DriftReport{PartSizes: []int{50, 50}, MaxPropertyWCC: 101}, true},
		{"default policy cap", DefaultPolicy(), cluster.DriftReport{CapViolations: 1}, true},
		{"default policy quiet", DefaultPolicy(),
			cluster.DriftReport{CrossingEdges: 120, CrossingEdgesBase: 100}, false},
	}
	for _, tc := range cases {
		due, reason := tc.pol.Due(tc.rep)
		if due != tc.due {
			t.Errorf("%s: due=%v (reason %q), want %v", tc.name, due, reason, tc.due)
		}
		if due && reason == "" {
			t.Errorf("%s: due with empty reason", tc.name)
		}
	}
}

// driftedCluster builds an in-process MPC cluster and pushes cross-boundary
// inserts through it until the crossing-edge count exceeds ratio× its base.
func driftedCluster(t *testing.T, ratio float64) *cluster.Cluster {
	t.Helper()
	g := datagen.LUBM{}.Generate(6000, 1)
	p, err := (core.MPC{}).Partition(g, partition.Options{K: 3, Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.NewFromPartitioning(p, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	vname := func(id rdf.VertexID) string { return g.Vertices.String(uint32(id)) }
	pname := func(id rdf.PropertyID) string { return g.Properties.String(uint32(id)) }
	for i := 0; i < 50; i++ {
		ops := make([]rdf.Op, 60)
		for j := range ops {
			ops[j] = rdf.Op{Insert: true,
				S: vname(rdf.VertexID(rng.Intn(g.NumVertices()))),
				P: pname(rdf.PropertyID(rng.Intn(g.NumProperties()))),
				O: vname(rdf.VertexID(rng.Intn(g.NumVertices())))}
		}
		if _, err := c.Apply(context.Background(), ops); err != nil {
			t.Fatal(err)
		}
		rep, ok := c.DriftReport()
		if !ok {
			t.Fatal("no drift report")
		}
		if float64(rep.CrossingEdges) > ratio*float64(rep.CrossingEdgesBase) {
			return c
		}
	}
	t.Fatal("could not drift the cluster past the ratio")
	return nil
}

// TestCheckTriggersRepartition drives the full policy → snapshot →
// recompute → migrate cycle: a drifted cluster must trigger on Check, the
// migration must actually move vertices and invoke the cutover hook, the
// drift baseline must reset so an immediate re-Check stays quiet, and the
// status must record all of it.
func TestCheckTriggersRepartition(t *testing.T) {
	c := driftedCluster(t, 1.2)
	cutovers := 0
	r := New(c, Options{
		Policy:    Policy{CrossGrowthRatio: 1.2},
		OnCutover: func() { cutovers++ },
		Logf:      t.Logf,
	})

	ran, err := r.Check(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("Check on a drifted cluster did not repartition")
	}
	if cutovers != 1 {
		t.Fatalf("cutover hook ran %d times, want 1", cutovers)
	}
	st := r.Status()
	if st.Checks != 1 || st.Due != 1 || st.Runs != 1 || st.Failures != 0 || st.InProgress {
		t.Fatalf("status after run: %+v", st)
	}
	if st.LastReason == "" || st.LastStats.Moved == 0 {
		t.Fatalf("status missing outcome: reason %q, stats %+v", st.LastReason, st.LastStats)
	}
	if st.LastStats.CutoverPause <= 0 || st.LastStats.CutoverPause > st.LastStats.ShipTime+st.LastStats.PlanTime+st.LastStats.CutoverPause {
		t.Fatalf("implausible cutover pause %v", st.LastStats.CutoverPause)
	}

	// The cutover resets the drift baseline to the recomputed layout, so
	// the same policy is immediately quiet again.
	ran, err = r.Check(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("Check immediately after a repartition triggered again")
	}
	if got := r.Status().Checks; got != 2 {
		t.Fatalf("checks = %d, want 2", got)
	}
}

// TestRepartitionRestoresCap pins the Definition 4.1 half of the policy: a
// cluster with balance-cap violations repartitions back under the cap.
func TestRepartitionRestoresCap(t *testing.T) {
	g := datagen.LUBM{}.Generate(4000, 1)
	p, err := (core.MPC{}).Partition(g, partition.Options{K: 3, Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.NewFromPartitioning(p, cluster.Config{BalanceEpsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// Pile fresh vertices onto one existing subject: every insert lands in
	// that subject's partition (least-loaded placement still keeps the STAR
	// together per vertex, but the star's center partition gains them all
	// as endpoints of internal edges is not guaranteed — so keep inserting
	// until the report shows a violation).
	anchor := g.Vertices.String(0)
	for i := 0; ; i++ {
		if i == 400 {
			t.Skip("could not provoke a cap violation on this layout")
		}
		ops := make([]rdf.Op, 10)
		for j := range ops {
			ops[j] = rdf.Op{Insert: true, S: anchor, P: "u:load", O: fmt.Sprintf("u:x%d-%d", i, j)}
		}
		if _, err := c.Apply(context.Background(), ops); err != nil {
			t.Fatal(err)
		}
		if rep, _ := c.DriftReport(); rep.CapViolations > 0 {
			break
		}
	}

	r := New(c, Options{Policy: Policy{MaxCapViolations: 1}, Epsilon: 0.1, Logf: t.Logf})
	stats, err := r.Repartition(context.Background(), "test")
	if err != nil {
		t.Fatal(err)
	}
	if stats.CapViolationsBefore == 0 {
		t.Fatal("precondition lost: no cap violation before the repartition")
	}
	if stats.CapViolationsAfter != 0 {
		t.Fatalf("repartition left %d cap violations", stats.CapViolationsAfter)
	}
	rep, _ := c.DriftReport()
	if rep.CapViolations != 0 {
		t.Fatalf("drift report still sees %d cap violations", rep.CapViolations)
	}
}

// TestRepartitionerGuards covers the edges: VP clusters are rejected, and
// the in-progress slot is exclusive.
func TestRepartitionerGuards(t *testing.T) {
	g := datagen.LUBM{}.Generate(2000, 1)
	vpl, err := (partition.VP{}).Partition(g, partition.Options{K: 2, Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	vc, err := cluster.New(vpl, nil, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(vc, Options{}).Check(context.Background()); err == nil {
		t.Fatal("Check on a VP cluster succeeded")
	}
	if _, err := New(vc, Options{}).Repartition(context.Background(), "x"); err == nil {
		t.Fatal("Repartition on a VP cluster succeeded")
	}

	r := New(driftedCluster(t, 1.05), Options{})
	r.mu.Lock()
	r.running = true
	r.mu.Unlock()
	if _, err := r.Repartition(context.Background(), "y"); !errors.Is(err, ErrInProgress) {
		t.Fatalf("second concurrent run: got %v, want ErrInProgress", err)
	}
}
