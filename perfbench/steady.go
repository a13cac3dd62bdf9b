package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchConfig is the part of BENCHMARK.json the steadiness check reads.
type benchConfig struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []e2eMetric `json:"end_to_end"`
}

// e2eMetric is an end-to-end metric's name and bound.
type e2eMetric struct {
	Name  string  `json:"name"`
	Bound float64 `json:"bound"`
}

// runTimeout bounds one benchmark run.
const runTimeout = 180 * time.Second

// setupMetric is the set-up time. Its spread is printed but not gated:
// set-ups are short (60 ms to 0.9 s), and on a shared host their medians
// move from one process to the next by more than any bound (up to 113%
// within a set of ten) while the medians of two sets stay within it; the
// set-to-set check still holds it to its bound.
const setupMetric = "setup_s"

// steadySets is how many sets of runs steady compares, and each set also
// makes one traced run.
const steadySets = 2

// steadyMain runs every workload in two sets of -runs runs, each run in a
// fresh process with its own seed, plus one traced run per set, and fails
// when
//   - a run fails or reports a wrong output;
//   - an end-to-end metric's spread (the distance between its first and
//     third quartile, as a share of its median) exceeds its bound, except
//     for setup_s (see setupMetric);
//   - the two sets' medians of a metric differ by more than its bound;
//   - the share of failed operations differs between runs;
//   - a sim_* metric differs at all between runs, or, on the simulator
//     workloads, a simulated per-layer count differs between traced runs.
//
// It reads the bounds from BENCHMARK.json in the working directory, the
// repository root, and runs each run for its run_seconds.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload per set")
	only := fs.String("workloads", "", "comma-separated workloads (default: all)")
	seed0 := fs.Uint64("seed", 1, "first seed; every run gets the next one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 2
	}
	var cfg benchConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 2
	}
	if *runs < 2 || cfg.RunSeconds < 1 {
		fmt.Fprintln(os.Stderr, "steady: need -runs >= 2 and run_seconds >= 1")
		return 2
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 2
	}
	prov, _ := json.Marshal(provenance(strings.Join(names, ","), *seed0))
	fmt.Printf("provenance %s\n", prov)

	ok := true
	seed := *seed0
	for _, name := range names {
		var all [][]*result
		var tracedRes []*result
		for s := 0; s < steadySets; s++ {
			var set []*result
			for i := 0; i < *runs; i++ {
				r, err := runOnce(exe, name, seed, cfg.RunSeconds, 0)
				fmt.Printf("run %s set %d seed %d: %s\n", name, s+1, seed, summary(r, err))
				seed++
				if err != nil {
					ok = false
					continue
				}
				set = append(set, r)
			}
			r, err := runOnce(exe, name, seed, cfg.RunSeconds, 1)
			fmt.Printf("traced %s set %d seed %d: %s\n", name, s+1, seed, summary(r, err))
			seed++
			if err != nil {
				ok = false
			} else {
				tracedRes = append(tracedRes, r)
			}
			all = append(all, set)
		}
		if !judge(os.Stdout, name, cfg, all, tracedRes) {
			ok = false
		}
	}
	if !ok {
		fmt.Println("steady: FAIL")
		return 1
	}
	fmt.Println("steady: ok")
	return 0
}

// runOnce runs the benchmark in a fresh process and parses its last line.
func runOnce(exe, name string, seed uint64, seconds, trace int) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !r.Correct {
		return &r, fmt.Errorf("outputs did not match their references")
	}
	return &r, nil
}

func summary(r *result, err error) string {
	if err != nil {
		return "ERROR " + err.Error()
	}
	var parts []string
	for _, k := range sortedKeys(r.Metrics) {
		parts = append(parts, fmt.Sprintf("%s=%.6g", k, r.Metrics[k].Value))
	}
	return fmt.Sprintf("attempted=%d failed=%d %s", r.Attempted, r.Failed, strings.Join(parts, " "))
}

// judge prints one workload's table and reports whether it is steady.
func judge(w *os.File, name string, cfg benchConfig, sets [][]*result, traced []*result) bool {
	ok := true
	fail := func(format string, args ...interface{}) {
		ok = false
		fmt.Fprintf(w, "  FAIL "+format+"\n", args...)
	}
	fmt.Fprintf(w, "%s\n", name)
	var runs []*result
	for _, s := range sets {
		runs = append(runs, s...)
	}
	if len(runs) == 0 {
		fail("no run finished")
		return false
	}
	share := func(r *result) float64 { return float64(r.Failed) / float64(r.Attempted) }
	for _, r := range runs[1:] {
		if share(r) != share(runs[0]) {
			fail("failed share %d/%d differs from %d/%d", r.Failed, r.Attempted, runs[0].Failed, runs[0].Attempted)
		}
	}
	for _, m := range cfg.EndToEnd {
		var meds []float64
		for si, s := range sets {
			vals := metricValues(s, m.Name)
			if len(vals) < 2 {
				fail("%s: fewer than two values", m.Name)
				continue
			}
			q := quartiles(vals)
			spread := (q[2] - q[0]) / q[1]
			verdict := "ok"
			switch {
			case spread > m.Bound && m.Name == setupMetric:
				verdict = "wide (not gated)"
			case spread > m.Bound:
				verdict = "TOO WIDE"
				ok = false
			case spread > m.Bound/3:
				verdict = "ok (over a third of the bound)"
			}
			fmt.Fprintf(w, "  set %d %-15s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%% bound %5.1f%% %s\n",
				si+1, m.Name, q[1], q[0], q[2], spread*100, m.Bound*100, verdict)
			meds = append(meds, q[1])
		}
		if len(meds) == 2 {
			if move := (meds[1] - meds[0]) / meds[0]; math.Abs(move) > m.Bound {
				fail("%s: the second set's median moved %+.1f%% from the first's (bound %.0f%%)", m.Name, move*100, m.Bound*100)
			}
		}
		if strings.HasPrefix(m.Name, "sim_") {
			for _, v := range metricValues(runs, m.Name) {
				if v != runs[0].Metrics[m.Name].Value {
					fail("%s differs between runs: %v and %v", m.Name, runs[0].Metrics[m.Name].Value, v)
					break
				}
			}
		}
	}
	if _, det := deterministicWorkloads[name]; det && len(traced) > 1 {
		for _, c := range simCounts {
			for _, r := range traced[1:] {
				if r.Metrics[c].Value != traced[0].Metrics[c].Value {
					fail("simulated count %s differs between traced runs: %v and %v", c, traced[0].Metrics[c].Value, r.Metrics[c].Value)
					break
				}
			}
		}
	}
	for _, r := range traced {
		fmt.Fprintf(w, "  traced: tracing overhead %.2f%%\n", r.Metrics["trace.overhead_pct"].Value)
	}
	return ok
}

// deterministicWorkloads are the workloads whose simulated per-layer counts
// repeat exactly; on the serving workloads they follow the batching, which
// follows host timing.
var deterministicWorkloads = map[string]struct{}{"campaign": {}, "figures": {}}

func metricValues(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (its default "exclusive"
// method).
func quartiles(vals []float64) [3]float64 {
	data := append([]float64(nil), vals...)
	sort.Float64s(data)
	const n = 4
	ld := len(data)
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		out[i-1] = (data[j-1]*(n-delta) + data[j]*delta) / n
	}
	if math.IsNaN(out[1]) {
		out[1] = 0
	}
	return out
}
