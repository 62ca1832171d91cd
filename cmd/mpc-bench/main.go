// Command mpc-bench runs the paper-reproduction experiments and prints the
// regenerated tables and figure series.
//
// Usage:
//
//	mpc-bench -exp all
//	mpc-bench -exp table2 -triples 100000 -k 8
//	mpc-bench -exp fig8 -logqueries 1000
//
// Experiments: table2 table3 table4 table5 table6 table7 fig7 fig8 fig9
// fig10 fig11 ablations offline online scale all. Figures 9 and 10 share
// one runner (fig9 and fig10 are aliases). The offline experiment sweeps
// the -workers knob over {1, 2, NumCPU}; the online experiment measures the
// query path (latency quantiles per executability class and per operator
// class — the GQ1–GQ6 generalized queries ride along with each dataset's
// workload — plus join shapes, allocation microbenchmarks, and a transport
// section that re-runs every combination over loopback TCP sites); the
// scale experiment serves the same MPC layout from heap-resident flat
// stores and from mmap-backed block snapshots and compares load-time heap
// and result digests. All three write machine-readable results to the
// -json path, defaulting to BENCH_<exp>.json.
//
// Concurrent serving (scheduler, result cache, admission control) and
// online repartitioning are measured by the repository benchmark
// (benchmark/, `make benchmark`, `make bench-compare`) and checked end to
// end by `make server-smoke` and `make repart-smoke`.
//
// The latencies of Tables IV/V, Figures 7–11 and the semijoin ablation add
// the paper's network model to the measured join time: 2µs per
// intermediate tuple shipped, charged to in-process clusters only. The
// localization ablation reports the summed time and the count of its site
// calls instead. The online experiment's latency histograms are measured
// only, with no model.
//
// Observability: -metrics PATH dumps the run's metrics registry (counters,
// gauges, latency histograms, recent query traces) as JSON when the run
// finishes ("-" writes to stdout); -obs-listen ADDR serves the same
// snapshot live at /debug/metrics plus net/http/pprof at /debug/pprof/.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mpc/internal/bench"
	"mpc/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (table2..table7, fig7..fig11, ablations, all)")
	triples := flag.Int("triples", 50000, "dataset size in triples")
	k := flag.Int("k", 8, "number of sites")
	epsilon := flag.Float64("epsilon", 0.1, "maximum imbalance ratio ε")
	seed := flag.Int64("seed", 1, "seed")
	logQueries := flag.Int("logqueries", 200, "query-log sample size")
	scales := flag.String("scales", "25000,50000,100000", "comma-separated scales for fig9/fig10")
	workers := flag.Int("workers", 0, "worker count for parallel offline phases (0 = NumCPU, 1 = serial)")
	jsonPath := flag.String("json", "", "output path for the offline/online/scale experiment's JSON (default BENCH_<exp>.json)")
	metricsPath := flag.String("metrics", "", "dump the metrics registry as JSON to this path after the run (\"-\" = stdout)")
	obsListen := flag.String("obs-listen", "", "serve /debug/metrics and /debug/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	cfg := bench.Config{
		Triples:    *triples,
		K:          *k,
		Epsilon:    *epsilon,
		Seed:       *seed,
		LogQueries: *logQueries,
		Workers:    *workers,
	}
	if *metricsPath != "" || *obsListen != "" {
		cfg.Obs = obs.NewRegistry()
	}
	if *obsListen != "" {
		_, addr, err := cfg.Obs.Serve(*obsListen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpc-bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[metrics at http://%s/debug/metrics, profiles at http://%s/debug/pprof/]\n", addr, addr)
	}
	for _, s := range strings.Split(*scales, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpc-bench: bad -scales entry %q\n", s)
			os.Exit(2)
		}
		cfg.Scales = append(cfg.Scales, n)
	}

	if err := run(*exp, cfg, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "mpc-bench:", err)
		os.Exit(1)
	}
	if err := dumpMetrics(cfg.Obs, *metricsPath); err != nil {
		fmt.Fprintln(os.Stderr, "mpc-bench:", err)
		os.Exit(1)
	}
}

// dumpMetrics writes the registry snapshot as JSON to path ("-" = stdout).
func dumpMetrics(reg *obs.Registry, path string) error {
	if reg == nil || path == "" {
		return nil
	}
	if path == "-" {
		return reg.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "[metrics written to %s]\n", path)
	return nil
}

// writeJSON saves an experiment's result through write, at path or, when
// path is empty, at BENCH_<exp>.json.
func writeJSON(exp, path string, write func(path string) error) error {
	if path == "" {
		path = "BENCH_" + exp + ".json"
	}
	if err := write(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "[%s results written to %s]\n", exp, path)
	return nil
}

func run(exp string, cfg bench.Config, jsonPath string) error {
	out := os.Stdout
	runOne := func(name string) error {
		start := time.Now()
		switch name {
		case "table2":
			rows, err := bench.RunTable2(cfg)
			if err != nil {
				return err
			}
			bench.RenderTable2(out, rows)
		case "table3":
			rows, err := bench.RunTable3(cfg)
			if err != nil {
				return err
			}
			bench.RenderTable3(out, rows)
		case "table4":
			rows, err := bench.RunTable4(cfg)
			if err != nil {
				return err
			}
			bench.RenderStages(out, "Table IV: per-stage evaluation on LUBM (MPC)", rows)
		case "table5":
			yago, bio, err := bench.RunTable5(cfg)
			if err != nil {
				return err
			}
			bench.RenderStages(out, "Table V: per-stage evaluation on YAGO2 (MPC)", yago)
			bench.RenderStages(out, "Table V: per-stage evaluation on Bio2RDF (MPC)", bio)
		case "table6":
			rows, err := bench.RunTable6(cfg)
			if err != nil {
				return err
			}
			bench.RenderTable6(out, rows)
		case "table7":
			rows, err := bench.RunTable7(cfg)
			if err != nil {
				return err
			}
			bench.RenderTable7(out, rows)
		case "fig7":
			rows, err := bench.RunFig7(cfg)
			if err != nil {
				return err
			}
			bench.RenderFig7(out, rows)
		case "fig8":
			rows, err := bench.RunFig8(cfg)
			if err != nil {
				return err
			}
			bench.RenderFig8(out, rows)
		case "fig9", "fig10":
			rows, err := bench.RunScalability(cfg)
			if err != nil {
				return err
			}
			bench.RenderScalability(out, rows)
		case "fig11":
			rows, err := bench.RunFig11(cfg)
			if err != nil {
				return err
			}
			bench.RenderFig11(out, rows)
		case "offline":
			res, err := bench.RunOffline(cfg)
			if err != nil {
				return err
			}
			bench.RenderOffline(out, res)
			if err := writeJSON(name, jsonPath, func(path string) error { return bench.WriteOfflineJSON(path, res) }); err != nil {
				return err
			}
		case "online":
			res, err := bench.RunOnline(cfg)
			if err != nil {
				return err
			}
			bench.RenderOnline(out, res)
			if err := writeJSON(name, jsonPath, func(path string) error { return bench.WriteOnlineJSON(path, res) }); err != nil {
				return err
			}
		case "scale":
			res, err := bench.RunScale(cfg)
			if err != nil {
				return err
			}
			bench.RenderScale(out, res)
			if err := writeJSON(name, jsonPath, func(path string) error { return bench.WriteScaleJSON(path, res) }); err != nil {
				return err
			}
		case "ablations":
			sel, err := bench.RunAblationSelectors(cfg)
			if err != nil {
				return err
			}
			bench.RenderAblationSelectors(out, sel)
			dsf, err := bench.RunAblationDSF(cfg)
			if err != nil {
				return err
			}
			bench.RenderAblationDSF(out, dsf)
			ek, err := bench.RunAblationEpsilonK(cfg)
			if err != nil {
				return err
			}
			bench.RenderAblationEpsilonK(out, ek)
			kh, err := bench.RunAblationKHop(cfg)
			if err != nil {
				return err
			}
			bench.RenderAblationKHop(out, kh)
			sj, err := bench.RunAblationSemijoin(cfg)
			if err != nil {
				return err
			}
			bench.RenderAblationSemijoin(out, sj)
			wt, err := bench.RunAblationWeighted(cfg)
			if err != nil {
				return err
			}
			bench.RenderAblationWeighted(out, wt)
			lc, err := bench.RunAblationLocalize(cfg)
			if err != nil {
				return err
			}
			bench.RenderAblationLocalize(out, lc)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}

	if exp == "all" {
		for _, name := range []string{
			"table2", "table3", "table4", "table5", "table6", "table7",
			"fig7", "fig8", "fig9", "fig11", "ablations",
		} {
			if err := runOne(name); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	return runOne(exp)
}
