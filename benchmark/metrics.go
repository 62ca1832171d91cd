package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// metric is one named, united number the benchmark reports.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // end-to-end only: the share by which it may worsen
}

// benchmarkFile is BENCHMARK.json at the repository root: the one place the
// metric names, units, directions and bounds and the window length are
// written down. Every workload reports every end-to-end metric from its
// untraced window and every per-layer metric from its traced pass; a layer
// a workload bypasses reads 0 there.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("the metric list is read from BENCHMARK.json (run from the repository root): %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(bf.EndToEnd) == 0 || len(bf.PerLayer) == 0 || bf.RunSeconds <= 0 {
		return nil, fmt.Errorf("%s: end_to_end, per_layer and run_seconds must all be set", path)
	}
	return &bf, nil
}

// finish names a pass's numbers by BENCHMARK.json's list: 0 where the pass
// produced none (a layer the workload bypasses did no work), an error where
// it produced a number the list does not name (a mistake in this package).
func finish(values map[string]float64, list []metric) (map[string]float64, error) {
	out := make(map[string]float64, len(list))
	for _, m := range list {
		out[m.Name] = values[m.Name]
	}
	var unlisted []string
	for name := range values {
		if _, ok := out[name]; !ok {
			unlisted = append(unlisted, name)
		}
	}
	if len(unlisted) > 0 {
		sort.Strings(unlisted)
		return nil, fmt.Errorf("BENCHMARK.json does not list %v", unlisted)
	}
	return out, nil
}
