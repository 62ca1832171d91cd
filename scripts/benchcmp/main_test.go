package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 4 {
		t.Fatal("quantile sorted its input in place")
	}
}

func TestSummarize(t *testing.T) {
	qps := Metric{Name: "qps", Better: "higher", Bound: 0.15}
	p50 := Metric{Name: "op_p50_ms", Better: "lower", Bound: 0.15}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		m       Metric
		nv      []float64
		wins    int
		verdict string
	}{
		{qps, scale(2), 10, "gain"},
		{qps, scale(1.01), 6, "ok"}, // within the base IQR, few wins
		{qps, scale(0.9), 0, "ok"},  // worse, but inside the 15 % bound
		{qps, scale(0.8), 0, "REGRESSION"},
		{p50, scale(1.2), 0, "REGRESSION"},
		{p50, scale(0.5), 10, "gain"},
	}
	for _, tc := range cases {
		if r := summarize(tc.m, base, tc.nv, tc.wins); r.verdict != tc.verdict {
			t.Errorf("%s ×%.2f: verdict %s, want %s", tc.m.Name, tc.nv[0]/base[0], r.verdict, tc.verdict)
		}
	}
}

func TestCompareExitsOnRegression(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"qps","unit":"1/s","better":"higher","bound":0.15}]}`), 0o644)
	res := filepath.Join(dir, "res")
	os.Mkdir(res, 0o755)
	write := func(side string, pair int, qps float64, failed int) {
		line := fmt.Sprintf(`{"correct":true,"attempted":100,"failed":%d,"metrics":{"qps":{"value":%g,"unit":"1/s"}}}`, failed, qps)
		os.WriteFile(filepath.Join(res, fmt.Sprintf("%s.w.%d.json", side, pair)), []byte(line), 0o644)
	}
	for i := 1; i <= 3; i++ {
		write("base", i, 100, 0)
		write("new", i, 200, 0)
	}
	var out strings.Builder
	if ok, err := compare(spec, res, &out); err != nil || !ok {
		t.Fatalf("gain reported as failure: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "gain") {
		t.Errorf("no gain verdict:\n%s", out.String())
	}
	write("new", 2, 50, 0)
	write("new", 3, 50, 1)
	out.Reset()
	if ok, err := compare(spec, res, &out); err != nil || ok {
		t.Fatalf("regression not reported: ok=%v err=%v\n%s", ok, err, out.String())
	}
}
