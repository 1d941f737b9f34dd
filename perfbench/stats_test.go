package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	// The input order does not matter and is left untouched.
	shuffled := []float64{50, 15, 40, 20, 35}
	if got := percentile(shuffled, 50); got != 35 || shuffled[0] != 50 {
		t.Errorf("percentile on unsorted input = %v (input now %v)", got, shuffled)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		want   float64
		wantOK bool
	}{
		{5, 0, false},   // even the median has only 2 beyond it
		{20, 50, true},  // rank 10, 10 beyond
		{100, 90, true}, // p95 has rank 95: only 5 beyond
		{199, 90, true}, // p95 has rank 190: 9 beyond
		{200, 95, true}, // p95 has rank 190: exactly 10 beyond
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n, 10)
		if p != c.want || ok != c.wantOK {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.wantOK)
		}
		if ok && c.n-nearestRank(c.n, p) < 10 {
			t.Errorf("n=%d: p%v leaves fewer than 10 samples beyond it", c.n, p)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestMetricNames(t *testing.T) {
	for _, ok := range []string{"wall_s", "trace.decode_full_MBps", "server.first_p95_ms", "x-1"} {
		if !validMetricName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_x", "first_p95(ms)", "a b", "naïve", string(make([]byte, 65))} {
		if validMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json perfbench must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to what perfbench
// runs and emits, and every name in it to the metric-name rule.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct {
		Name string `json:"name"`
	}) []string {
		var out []string
		for _, x := range xs {
			if !validMetricName(x.Name) {
				t.Errorf("invalid name %q", x.Name)
			}
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(f.Workloads); !reflect.DeepEqual(got, workloadNames) {
		t.Errorf("workloads %v, perfbench runs %v", got, workloadNames)
	}
	if got := names(f.EndToEnd); !reflect.DeepEqual(got, endToEndNames) {
		t.Errorf("end_to_end %v, perfbench emits %v", got, endToEndNames)
	}
	if got := names(f.PerLayer); !reflect.DeepEqual(got, perLayerNames) {
		t.Errorf("per_layer %v, traced run emits %v", got, perLayerNames)
	}
}
