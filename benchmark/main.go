// Command benchmark is this repository's benchmark: four workloads over the
// real serving path (MPC layout → mapped block stores → loopback TCP sites →
// coordinator → scheduler) and the offline pipeline, with an untraced timed
// window for the end-to-end metrics and a separate traced pass for the
// per-layer ledger. See README.md in this directory.
//
//	go run ./benchmark                         every workload, both passes
//	go run ./benchmark -workload zipf_rw -trace 0 -seed 3
//	go run ./benchmark -selfcheck              run twice, compare against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
)

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "run only this workload (default: all four)")
	seed := flag.Int64("seed", 1, "generates the traffic, and the offline workload's datasets")
	dataSeed := flag.Int64("data-seed", 1, "generates the serving workloads' graphs and layouts; the recorded numbers use 1")
	seconds := flag.Float64("seconds", 0, "timed window per workload (default: BENCHMARK.json's run_seconds)")
	trace := flag.String("trace", "", "0: untraced window, end-to-end metrics; 1: traced pass, per-layer metrics; empty: both")
	spansPath := flag.String("spans", "", "write the traced pass's spans to this file as JSON")
	selfcheck := flag.Bool("selfcheck", false, "run the untraced benchmark twice and compare against BENCHMARK.json's bounds")
	dir := flag.String("dir", ".bench_build/data", "scratch directory, inside the checkout")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		return 2
	}

	bf, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	cfg := Config{
		Seed: *seed, DataSeed: *dataSeed, Seconds: *seconds, Clients: runtime.NumCPU(), Scale: 1,
		EndToEnd: bf.EndToEnd, PerLayer: bf.PerLayer,
		Logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	}
	if cfg.Seconds == 0 {
		cfg.Seconds = float64(bf.RunSeconds)
	}
	if cfg.Seconds < 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		return 2
	}
	names := workloadNames
	if *workload != "" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{*workload}
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	// A private scratch directory per process, so two runs side by side in
	// one checkout cannot delete each other's snapshots.
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	cfg.Dir = scratch

	fmt.Printf("mpc benchmark: seed %d, data seed %d, window %gs, nproc %d, GOMAXPROCS %d, %s\n",
		cfg.Seed, cfg.DataSeed, cfg.Seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	if *selfcheck {
		return selfCheck(cfg, names)
	}

	ok := true
	var reports []*Report
	for _, name := range names {
		if *trace != "1" {
			rep, err := runWindow(name, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				return 1
			}
			printReport(rep, cfg)
			reports = append(reports, rep)
			ok = ok && rep.Correct
		}
		if *trace != "0" {
			rep, err := runTraced(name, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				return 1
			}
			printReport(rep, cfg)
			reports = append(reports, rep)
			ok = ok && rep.Correct
			if *spansPath != "" && len(rep.Spans) > 0 {
				path := *spansPath
				if len(names) > 1 {
					path += "." + name
				}
				if err := writeSpans(path, rep.Spans); err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
			}
		}
	}
	// The last line of standard output is the machine-readable result: for
	// one workload and one pass, the object the driver's contract names.
	if len(reports) == 1 {
		fmt.Println(resultLine(reports[0], cfg))
	} else {
		all := map[string]json.RawMessage{}
		for _, rep := range reports {
			pass := ".window"
			if rep.E2E == nil {
				pass = ".traced"
			}
			all[rep.Workload+pass] = json.RawMessage(resultLine(rep, cfg))
		}
		line, _ := json.Marshal(all)
		fmt.Println(string(line))
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED — wrong answers, errors or rejected operations (see above)")
		return 1
	}
	return 0
}

func runWindow(name string, cfg Config) (*Report, error) {
	if name == wlOffline {
		return runOfflineWindow(cfg)
	}
	return runServingWindow(servingSpecs(cfg)[name], cfg)
}

func runTraced(name string, cfg Config) (*Report, error) {
	if name == wlOffline {
		return runOfflineTraced(cfg)
	}
	return runServingTraced(servingSpecs(cfg)[name], cfg)
}

// printReport writes one pass of one workload for a human.
func printReport(rep *Report, cfg Config) {
	pass, ms, values := "untraced window: end-to-end metrics", cfg.EndToEnd, rep.E2E
	if rep.E2E == nil {
		pass, ms, values = "traced pass: per-layer ledger", cfg.PerLayer, rep.Layers
	}
	fmt.Printf("\n== %s — %s\n", rep.Workload, pass)
	for _, n := range rep.Notes {
		fmt.Printf("   %s\n", n)
	}
	fmt.Printf("   attempted %d, failed %d, failed_ratio %.6f, correct %v\n",
		rep.Attempted, rep.Failed, safeDiv(float64(rep.Failed), float64(rep.Attempted)), rep.Correct)
	for _, m := range ms {
		fmt.Printf("   %-36s %14.6g %s\n", m.Name, values[m.Name], m.Unit)
	}
}

// resultLine renders the one-line JSON result of a pass.
func resultLine(rep *Report, cfg Config) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms, values := cfg.EndToEnd, rep.E2E
	if rep.E2E == nil {
		ms, values = cfg.PerLayer, rep.Layers
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]value{}}
	for _, m := range ms {
		v := values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			out.Correct = false
		}
		out.Metrics[m.Name] = value{v, m.Unit}
	}
	line, _ := json.Marshal(out)
	return string(line)
}

// exactMetrics repeat bit for bit under one seed: they are counts of the
// layout, not timings.
var exactMetrics = map[string]bool{"crossing_properties": true, "ieq_share": true, "snapshot_bytes_per_triple": true}

// selfCheck runs the untraced benchmark twice and holds the second run to
// the first by BENCHMARK.json's own bounds.
func selfCheck(cfg Config, names []string) int {
	var runs [2]map[string]*Report
	for i := range runs {
		runs[i] = map[string]*Report{}
		for _, name := range names {
			rep, err := runWindow(name, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				return 1
			}
			printReport(rep, cfg)
			runs[i][name] = rep
		}
	}
	fmt.Printf("\n== selfcheck: two runs of the same code, seed %d\n", cfg.Seed)
	fmt.Printf("   %-16s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "run 1", "run 2", "worse by", "bound", "")
	pass := true
	for _, name := range names {
		a, b := runs[0][name], runs[1][name]
		if !a.Correct || !b.Correct {
			fmt.Printf("   %-16s produced wrong answers or failed operations\n", name)
			pass = false
		}
		for _, m := range cfg.EndToEnd {
			x, y := a.E2E[m.Name], b.E2E[m.Name]
			worse := safeDiv(y-x, x)
			if m.Better == "higher" {
				worse = safeDiv(x-y, x)
			}
			verdict := "PASS"
			switch {
			case exactMetrics[m.Name] && x != y:
				verdict = "FAIL (must repeat exactly)"
			case worse > m.Bound:
				verdict = "FAIL"
			}
			if verdict != "PASS" {
				pass = false
			}
			fmt.Printf("   %-16s %-26s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n", name, m.Name, x, y, 100*worse, 100*m.Bound, verdict)
		}
	}
	if !pass {
		fmt.Println("   selfcheck FAILED")
		return 1
	}
	fmt.Println("   selfcheck passed")
	return 0
}
