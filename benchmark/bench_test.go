package main

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestSmoke runs all four workloads end to end at a thirtieth of the
// benchmark's size: a one-second window, then the traced pass. It keeps the
// benchmark's code under `go test ./...` without a long run, and holds the
// code to BENCHMARK.json: every workload it names runs, every metric it
// names is reported, finite and not negative, no end-to-end metric is 0, and
// no per-layer metric is 0 on every workload (a name the code never sets).
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run takes several seconds")
	}
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Fatalf("BENCHMARK.json names workloads %v, the benchmark runs %v", names, workloadNames)
	}
	cfg := Config{
		Seed: 1, DataSeed: 1, Seconds: 1, Clients: runtime.NumCPU(), Scale: 0.033, Dir: t.TempDir(),
		EndToEnd: bf.EndToEnd, PerLayer: bf.PerLayer, Logf: t.Logf,
	}
	moved := map[string]bool{}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			win, err := runWindow(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, win, win.E2E, bf.EndToEnd, true)
			tr, err := runTraced(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, tr, tr.Layers, bf.PerLayer, false)
			for k, v := range tr.Layers {
				moved[k] = moved[k] || v != 0
			}
			if name != wlOffline && len(tr.Spans) == 0 {
				t.Error("traced pass recorded no spans")
			}
			if name == wlWatDiv || name == wlLUBM {
				if h := tr.Layers["qcache.hit_ratio"]; h != 0 {
					t.Errorf("qcache.hit_ratio = %v on an uncached workload", h)
				}
				if win.E2E["update_mean_ms"] != win.E2E["op_p50_ms"] {
					t.Error("a workload without a writer should repeat op_p50_ms as update_mean_ms")
				}
			}
			if name == wlZipf {
				if tr.Layers["qcache.hit_ratio"] == 0 {
					t.Error("zipf_rw never hit the result cache")
				}
				if win.E2E["update_mean_ms"] == win.E2E["op_p50_ms"] {
					t.Error("zipf_rw should report its writer's latency as update_mean_ms")
				}
			}
		})
	}
	// Faults, and evictions from a cache every commit empties, need not occur.
	mayStayZero := map[string]bool{"serve.rejected": true, "transport.retries": true, "transport.errors": true, "qcache.evictions": true}
	for _, m := range bf.PerLayer {
		if !moved[m.Name] && !mayStayZero[m.Name] {
			t.Errorf("per-layer metric %s is 0 on every workload", m.Name)
		}
	}
}

func checkReport(t *testing.T, rep *Report, values map[string]float64, want []metric, nonZero bool) {
	t.Helper()
	for _, n := range rep.Notes {
		t.Log(n)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", rep.Workload, rep.Correct, rep.Attempted, rep.Failed)
	}
	if len(values) != len(want) {
		t.Errorf("%s: %d metrics reported, %d named", rep.Workload, len(values), len(want))
	}
	for _, m := range want {
		v, ok := values[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", rep.Workload, m.Name)
		case math.IsNaN(v) || math.IsInf(v, 0) || v < 0:
			t.Errorf("%s: metric %s = %v", rep.Workload, m.Name, v)
		case nonZero && v == 0:
			t.Errorf("%s: end-to-end metric %s is 0", rep.Workload, m.Name)
		}
	}
}

// TestFinish: a number BENCHMARK.json does not name is refused, one it names
// and the pass did not produce reads 0.
func TestFinish(t *testing.T) {
	list := []metric{{Name: "a"}, {Name: "b"}}
	got, err := finish(map[string]float64{"a": 2}, list)
	if err != nil || !reflect.DeepEqual(got, map[string]float64{"a": 2, "b": 0}) {
		t.Errorf("finish = %v, %v", got, err)
	}
	if _, err := finish(map[string]float64{"a": 2, "c": 1}, list); err == nil {
		t.Error("finish accepted a metric the list does not name")
	}
}

// TestWindowTails: each tail slot holds the percentile the workload fixed
// for it, and a workload without a writer repeats them as its update slots.
func TestWindowTails(t *testing.T) {
	lat := make(latencies, 1000)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	w := window{seconds: 1, lat: lat, tails: tails{0.95, 0.95}}
	m := w.e2e()
	if m["op_p50_ms"] != 500 || m["op_p95_ms"] != 950 || m["op_p99_ms"] != 950 || m["update_p25_ms"] != 500 || m["update_mean_ms"] != 500 {
		t.Errorf("no writer: %v", m)
	}
	w.tails, w.upd = tails{0.95, 0.99}, latencies{1, 2, 3, 6}
	m = w.e2e()
	if m["op_p99_ms"] != 990 || m["update_p25_ms"] != 1 || m["update_mean_ms"] != 3 {
		t.Errorf("writer: %v", m)
	}
}

// TestPickTail: the reported tail is the highest percentile that still has
// ten samples beyond it.
func TestPickTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {99, 0.5}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {1 << 20, 0.999},
	} {
		if got := pickTail(c.n); got != c.want {
			t.Errorf("pickTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The property itself, over every n.
	for n := 1; n < 12000; n += 7 {
		p := pickTail(n)
		if p == 0.5 {
			continue
		}
		if beyond := n - int(math.Ceil(p*float64(n)-1e-9)); beyond < minBeyond {
			t.Fatalf("pickTail(%d) = %v leaves %d samples beyond", n, p, beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.95, 10}, {0.99, 10}, {0.1, 1}, {0, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing should be 0")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

// TestSelfTimes: self time is the span minus the union of its direct
// children, parallel children counted once, children clipped to the parent.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "execute", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "rpc", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "rpc", Start: 20, End: 50}, // overlaps span 1
		{ID: 3, Parent: 0, Name: "rpc", Start: 60, End: 70},
		{ID: 4, Parent: 0, Name: "rpc", Start: 90, End: 120},  // runs past its parent
		{ID: 5, Parent: 3, Name: "match", Start: 62, End: 66}, // grandchild: only span 3 pays
		{ID: 6, Parent: -1, Name: "plan", Start: 200, End: 230},
	}
	want := []int64{100 - (40 + 10 + 10), 20, 30, 10 - 4, 30, 4, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if u := unionLen([]interval{{5, 10}, {0, 6}, {20, 25}, {25, 30}}); u != 20 {
		t.Errorf("unionLen = %d, want 20", u)
	}
}

// TestRounds: overlapping site calls form one fan-out round.
func TestRounds(t *testing.T) {
	spans := []Span{
		{ID: 0, Name: spanRPC, Start: 0, End: 10},
		{ID: 1, Name: spanRPC, Start: 2, End: 14},
		{ID: 2, Name: spanRPC, Start: 13, End: 15},
		{ID: 3, Name: spanRPC, Start: 20, End: 30},
		{ID: 4, Name: "other", Start: 21, End: 22},
		{ID: 5, Name: spanRPC, Start: 21, End: 25},
	}
	got := rounds(spans, []int{3, 0, 5, 1, 4, 2})
	want := [][]int{{0, 1, 2}, {3, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rounds = %v, want %v", got, want)
	}
}

// TestRunPacedAccounting drives the open-loop writer against a fake clock:
// latency runs from the due instant, a slow batch makes its successors
// late, and that lateness is reported rather than hidden.
func TestRunPacedAccounting(t *testing.T) {
	start := time.Unix(1000, 0)
	clock := start
	now := func() time.Time { return clock }
	sleep := func(d time.Duration) { clock = clock.Add(d) }
	cost := []time.Duration{10, 120, 10, 10}
	var begun []time.Duration
	log := runPaced(start, start.Add(200*time.Millisecond), 50*time.Millisecond, func(i int) error {
		begun = append(begun, clock.Sub(start)/time.Millisecond)
		clock = clock.Add(cost[i] * time.Millisecond)
		return nil
	}, now, sleep)

	if want := []time.Duration{0, 50, 170, 180}; !reflect.DeepEqual(begun, want) {
		t.Errorf("batches began at %v ms, want %v", begun, want)
	}
	if want := []float64{10, 120, 80, 40}; !reflect.DeepEqual(log.latMS, want) {
		t.Errorf("latency from due time %v, want %v", log.latMS, want)
	}
	if want := []float64{0, 0, 70, 30}; !reflect.DeepEqual(log.lateMS, want) {
		t.Errorf("generator lateness %v, want %v", log.lateMS, want)
	}
	if log.errors != 0 {
		t.Errorf("errors = %d", log.errors)
	}
}

// TestWriterPoolStationary replays the writer's schedule on a set: nothing
// is inserted twice or deleted while absent, and the residue is constant.
func TestWriterPoolStationary(t *testing.T) {
	w := newWriterPool([]string{"p", "q"}, 1)
	present := map[UpdateOp]bool{}
	apply := func(ops []UpdateOp) {
		for _, op := range ops {
			key := op
			key.Insert = true
			switch {
			case op.Insert && present[key]:
				t.Fatalf("insert of a live triple %v", op)
			case !op.Insert && !present[key]:
				t.Fatalf("delete of an absent triple %v", op)
			}
			if op.Insert {
				present[key] = true
			} else {
				delete(present, key)
			}
		}
	}
	for i := 0; i < writerSlices; i++ {
		apply(w.insert(i))
	}
	for i := writerResidue; i < writerSlices; i++ {
		apply(w.delete(i))
	}
	for i := 0; i < 300; i++ {
		batch := w.steady(i)
		if len(batch) != 2*writerPerBatch {
			t.Fatalf("batch of %d ops", len(batch))
		}
		apply(batch)
		if len(present) != writerResidue*writerPerBatch {
			t.Fatalf("after batch %d the residue is %d triples", i, len(present))
		}
	}
	for _, sl := range w.live(300) {
		apply(w.delete(sl))
	}
	if len(present) != 0 {
		t.Errorf("%d triples left after the drain", len(present))
	}
}
