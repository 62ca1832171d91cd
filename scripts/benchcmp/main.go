// Command benchcmp tabulates alternating benchmark runs of two revisions:
// per workload × end-to-end metric, the median and interquartile range of
// each side, the share of pairs the new side wins, and BENCHMARK.json's
// bound check. scripts/bench_compare.sh collects the runs and calls it;
// it exits 1 when any metric regresses past its bound or the new side
// fails a larger share of operations.
//
//	go run ./scripts/benchcmp -spec BENCHMARK.json -results DIR
//
// DIR holds one file per run, named <side>.<workload>.<pair>.json with side
// "base" or "new", each containing the benchmark's last stdout line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Spec is the part of BENCHMARK.json this tool reads.
type Spec struct {
	EndToEnd []Metric `json:"end_to_end"`
}

// Metric is one end-to-end metric's declaration.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // largest tolerated relative regression
}

// Run is the benchmark's one-line JSON result.
type Run struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	spec := flag.String("spec", "BENCHMARK.json", "the benchmark declaration")
	results := flag.String("results", "", "directory of <side>.<workload>.<pair>.json run results")
	flag.Parse()
	if *results == "" {
		fmt.Fprintln(os.Stderr, "benchcmp: -results is required")
		os.Exit(2)
	}
	ok, err := compare(*spec, *results, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// pairRuns is one workload's runs, indexed by pair number.
type pairRuns struct{ base, new map[int]Run }

// compare prints the table and reports whether every bound held.
func compare(specPath, dir string, w io.Writer) (bool, error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec Spec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	byWorkload, err := load(dir)
	if err != nil {
		return false, err
	}
	var names []string
	for name := range byWorkload {
		names = append(names, name)
	}
	sort.Strings(names)

	pass := true
	fmt.Fprintf(w, "%-16s %-26s %12s %12s %9s %10s %10s %6s %6s  %s\n",
		"workload", "metric", "base med", "new med", "change", "base IQR", "new IQR", "wins", "bound", "verdict")
	for _, name := range names {
		pr := byWorkload[name]
		var pairs []int
		for i := range pr.base {
			if _, ok := pr.new[i]; ok {
				pairs = append(pairs, i)
			}
		}
		sort.Ints(pairs)
		if len(pairs) == 0 {
			return false, fmt.Errorf("%s: no complete pair of runs", name)
		}
		var baseFail, baseOps, newFail, newOps int
		for _, i := range pairs {
			b, n := pr.base[i], pr.new[i]
			baseFail, baseOps = baseFail+b.Failed, baseOps+b.Attempted
			newFail, newOps = newFail+n.Failed, newOps+n.Attempted
			if !n.Correct {
				fmt.Fprintf(w, "%-16s pair %d: the new side reported correct=false\n", name, i)
				pass = false
			}
		}
		for _, m := range spec.EndToEnd {
			var bv, nv []float64
			wins := 0
			for _, i := range pairs {
				b, okB := pr.base[i].Metrics[m.Name]
				n, okN := pr.new[i].Metrics[m.Name]
				if !okB || !okN {
					continue
				}
				bv, nv = append(bv, b.Value), append(nv, n.Value)
				if better(m, n.Value, b.Value) {
					wins++
				}
			}
			if len(bv) == 0 {
				continue
			}
			row := summarize(m, bv, nv, wins)
			if row.regressed {
				pass = false
			}
			fmt.Fprintf(w, "%-16s %-26s %12s %12s %9s %10s %10s %6s %5.0f%%  %s\n",
				name, m.Name, num(row.baseMed), num(row.newMed), row.change,
				num(row.baseIQR), num(row.newIQR), fmt.Sprintf("%d/%d", wins, len(bv)),
				100*m.Bound, row.verdict)
		}
		bShare, nShare := share(baseFail, baseOps), share(newFail, newOps)
		verdict := "ok"
		if nShare > bShare {
			verdict, pass = "REGRESSION", false
		}
		fmt.Fprintf(w, "%-16s %-26s %12.6f %12.6f %9s %10s %10s %6s %6s  %s\n",
			name, "failed_share", bShare, nShare, "", "", "", "", "", verdict)
	}
	return pass, nil
}

// row is one metric's summary over the pairs.
type row struct {
	baseMed, newMed, baseIQR, newIQR float64
	change, verdict                  string
	regressed                        bool
}

// summarize holds the new side's median to the base median by the
// metric's bound, and names a gain when the new side wins at least nine
// pairs in ten and its median moves by more than the base runs' IQR.
func summarize(m Metric, bv, nv []float64, wins int) row {
	r := row{baseMed: quantile(bv, 0.5), newMed: quantile(nv, 0.5)}
	r.baseIQR = quantile(bv, 0.75) - quantile(bv, 0.25)
	r.newIQR = quantile(nv, 0.75) - quantile(nv, 0.25)
	r.verdict = "ok"
	if r.baseMed != 0 {
		rel := (r.newMed - r.baseMed) / math.Abs(r.baseMed)
		r.change = fmt.Sprintf("%+.1f%%", 100*rel)
		worse := rel
		if m.Better == "higher" {
			worse = -rel
		}
		if worse > m.Bound {
			r.verdict, r.regressed = "REGRESSION", true
		}
	} else if r.newMed != 0 {
		r.change = "from 0"
		if m.Better == "lower" {
			r.verdict, r.regressed = "REGRESSION", true
		}
	}
	if !r.regressed && better(m, r.newMed, r.baseMed) &&
		10*wins >= 9*len(bv) && math.Abs(r.newMed-r.baseMed) > r.baseIQR {
		r.verdict = "gain"
	}
	return r
}

// better reports whether a is strictly better than b for metric m.
func better(m Metric, a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func share(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// num renders a value with about four significant digits.
func num(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }

// load reads every <side>.<workload>.<pair>.json file under dir.
func load(dir string) (map[string]*pairRuns, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]*pairRuns{}
	for _, path := range paths {
		parts := strings.Split(strings.TrimSuffix(filepath.Base(path), ".json"), ".")
		if len(parts) != 3 || (parts[0] != "base" && parts[0] != "new") {
			return nil, fmt.Errorf("%s: want <side>.<workload>.<pair>.json", path)
		}
		pair, err := strconv.Atoi(parts[2])
		if err != nil {
			return nil, fmt.Errorf("%s: pair number: %w", path, err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var run Run
		if err := json.Unmarshal(raw, &run); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		pr := out[parts[1]]
		if pr == nil {
			pr = &pairRuns{base: map[int]Run{}, new: map[int]Run{}}
			out[parts[1]] = pr
		}
		if parts[0] == "base" {
			pr.base[pair] = run
		} else {
			pr.new[pair] = run
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no run results", dir)
	}
	return out, nil
}
