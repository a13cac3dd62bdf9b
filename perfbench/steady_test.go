package main

import (
	"math"
	"os"
	"testing"

	"github.com/gpm-sim/gpm/internal/telemetry"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(values, n=4) for each input.
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 2.9, 3.3, 3.0, 2.8}, [3]float64{2.85, 3.0, 3.2}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	}
	for _, c := range cases {
		got := quartiles(c.in)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	h := telemetry.HistogramSnapshot{Bounds: []int64{10, 20, 50}, Counts: []int64{0, 10, 0, 0}}
	if q := histQuantile(h, 0.5); q != 15 {
		t.Fatalf("median of 10 observations in (10,20] = %v, want 15", q)
	}
	h.Counts = []int64{0, 0, 0, 4}
	if q := histQuantile(h, 0.99); q != 50 {
		t.Fatalf("overflow bucket quantile = %v, want its lower bound 50", q)
	}
}

func TestJudgeFlagsUnsteadyRuns(t *testing.T) {
	cfg := benchConfig{EndToEnd: []e2eMetric{{"sim_gpm_ms", 0.01}}}
	mk := func(v float64, failed int64) *result {
		return &result{Correct: true, Attempted: 10, Failed: failed, Metrics: map[string]metric{"sim_gpm_ms": {v, "ms"}}}
	}
	devnull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	if !judge(devnull, "figures", cfg, [][]*result{{mk(5, 0), mk(5, 0), mk(5, 0)}}, nil) {
		t.Fatal("identical runs judged unsteady")
	}
	if judge(devnull, "figures", cfg, [][]*result{{mk(5, 0), mk(5, 0), mk(5.000001, 0)}}, nil) {
		t.Fatal("a sim_ metric that moved passed")
	}
	if judge(devnull, "figures", cfg, [][]*result{{mk(5, 0), mk(5, 1), mk(5, 0)}}, nil) {
		t.Fatal("a changed failed share passed")
	}
	if judge(devnull, "figures", cfg, [][]*result{{mk(5, 0), mk(5, 0)}, {mk(6, 0), mk(6, 0)}}, nil) {
		t.Fatal("a second set 20% worse passed a 1% bound")
	}
	if judge(devnull, "figures", cfg, [][]*result{{mk(5, 0), mk(5, 0)}, {mk(4, 0), mk(4, 0)}}, nil) {
		t.Fatal("a second set 20% better passed a 1% bound")
	}
	cfg.EndToEnd = []e2eMetric{{"setup_s", 0.25}}
	mkSetup := func(v float64) *result {
		return &result{Correct: true, Attempted: 10, Metrics: map[string]metric{"setup_s": {v, "s"}}}
	}
	if judge(devnull, "kv-write", cfg, [][]*result{{mkSetup(1), mkSetup(1.2)}, {mkSetup(1.5), mkSetup(1.7)}}, nil) {
		t.Fatal("a setup_s median 45% above the first set's passed a 25% bound")
	}
}
