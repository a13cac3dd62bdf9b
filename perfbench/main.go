// Command perfbench is the repository's benchmark. It runs one workload for
// a fixed number of seconds, checks every output against computations made
// apart from the program, and prints one JSON result line:
//
//	perfbench --workload campaign --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// telemetry, request tracing and profiling off. With --trace 1 the run
// measures half its time untraced and half traced, and the result holds the
// per-layer metrics plus the tracing overhead. "perfbench steady" repeats
// runs and checks that their figures are steady (see steady.go).
//
// The workloads are described in README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named value of a result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// roundStats is what one round of a workload did.
type roundStats struct {
	ops, failed int64
	lat         []time.Duration // one per operation
}

// simTotals are a workload's simulated results. They are deterministic: the
// same for every round, seed and host.
type simTotals struct {
	gpm, restore time.Duration
}

// phaseTimes splits host time between the phases of the runs a workload
// makes (node construction, input set-up, the measured region, checking).
type phaseTimes struct {
	envNew, setup, run, verify time.Duration
	runKernels                 int64 // kernels launched during the run phase
	// setupOnce says envNew, setup and verify happen once per run (the
	// serving workloads) rather than inside every round.
	setupOnce bool
}

// bench is one workload.
type bench interface {
	// setup builds what the rounds run against and returns how long that
	// took. Calling it again rebuilds from scratch.
	setup() (time.Duration, error)
	// round runs one whole round of the workload's operations.
	round() (roundStats, error)
	// finish checks the outputs left after the last round and returns the
	// simulated totals.
	finish() (simTotals, error)
	// phases reports the host time per phase over the rounds run so far.
	phases() phaseTimes
	// wrongOutputs counts outputs that did not match their reference.
	wrongOutputs() int
	close()
}

// workloadNames lists the workloads in the order BENCHMARK.json gives them.
var workloadNames = []string{"campaign", "figures", "kv-write", "kv-read-hot"}

// newBench builds a workload; tr is nil for an untraced run.
func newBench(name string, seed uint64, tr *tracing) (bench, error) {
	switch name {
	case "campaign", "figures":
		return newSimBench(name, tr), nil
	case "kv-write", "kv-read-hot":
		return newKVBench(name, seed, tr), nil
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(workloadNames, ", "))
}

// A run sets up at least setupMinReps times and until setupBudget has
// passed; setup_s is the median.
const (
	setupMinReps = 5
	setupBudget  = 2 * time.Second
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "seconds of measurement")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	if _, err := newBench(*name, *seed, nil); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	prov, _ := json.Marshal(map[string]interface{}{"provenance": provenance(*name, *seed)})
	fmt.Println(string(prov))

	d := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *trace == 1 {
		res, err = tracedRun(*name, *seed, d)
	} else {
		res, err = timedRun(*name, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: outputs did not match their references")
		return 1
	}
	return 0
}

// provenance says what produced a result, so two results can be compared
// honestly.
func provenance(workload string, seed uint64) map[string]interface{} {
	commit, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	return map[string]interface{}{
		"commit":     commit,
		"modified":   modified,
		"go":         runtime.Version(),
		"numcpu":     runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workload":   workload,
		"seed":       seed,
	}
}

// segment is the outcome of running whole rounds for a while. Each
// timing is kept per round, and a run reports the median over its rounds,
// so a burst of load from outside the benchmark moves one round, not the
// result.
type segment struct {
	rounds       int
	ops, failed  int64
	wall, cpu    []float64 // seconds per round
	opsPerS      []float64
	p50ms, p99ms []float64
}

// runRounds runs whole rounds for d: at least one, and no round that is
// expected (from the mean round so far) to end after d.
func runRounds(b bench, d time.Duration) (segment, error) {
	var s segment
	start := time.Now()
	for s.rounds == 0 || time.Since(start)*time.Duration(s.rounds+1)/time.Duration(s.rounds) <= d {
		cpu0, t0 := cpuTime(), time.Now()
		rs, err := b.round()
		if err != nil {
			return s, err
		}
		wall := time.Since(t0)
		s.rounds++
		s.ops += rs.ops
		s.failed += rs.failed
		s.wall = append(s.wall, wall.Seconds())
		s.cpu = append(s.cpu, (cpuTime() - cpu0).Seconds())
		s.opsPerS = append(s.opsPerS, float64(rs.ops)/wall.Seconds())
		sortDurations(rs.lat)
		s.p50ms = append(s.p50ms, ms(percentile(rs.lat, 0.50)))
		s.p99ms = append(s.p99ms, ms(percentile(rs.lat, 0.99)))
	}
	return s, nil
}

// timedRun measures the end-to-end metrics with all tracing off.
func timedRun(name string, seed uint64, d time.Duration) (*result, error) {
	b, err := newBench(name, seed, nil)
	if err != nil {
		return nil, err
	}
	defer b.close()
	var setups []float64
	for start := time.Now(); len(setups) < setupMinReps || time.Since(start) < setupBudget; {
		t, err := b.setup()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, t.Seconds())
	}
	s, err := runRounds(b, d)
	if err != nil {
		return nil, err
	}
	st, err := b.finish()
	if err != nil {
		return nil, err
	}
	m := map[string]metric{
		"wall_s":       {median(s.wall), "s"},
		"cpu_s":        {median(s.cpu), "s"},
		"peak_rss_mib": {peakRSSMiB(), "MiB"},
		"setup_s":      {median(setups), "s"},
		"ops_per_s":    {median(s.opsPerS), "ops/s"},
		"p50_ms":       {median(s.p50ms), "ms"},
		"p99_ms":       {median(s.p99ms), "ms"},
		// Simulated, not host, milliseconds: exact and the same every run.
		"sim_gpm_ms":     {ms(st.gpm), "sim_ms"},
		"sim_restore_ms": {ms(st.restore), "sim_ms"},
	}
	return &result{Correct: b.wrongOutputs() == 0, Attempted: s.ops, Failed: s.failed, Metrics: m}, nil
}

// tracedRun measures half of d untraced and half traced (telemetry,
// request tracer and CPU profile on) and reports the per-layer metrics of
// the traced half, plus the traced half's overhead per round.
func tracedRun(name string, seed uint64, d time.Duration) (*result, error) {
	half := d / 2
	plain, err := newBench(name, seed, nil)
	if err != nil {
		return nil, err
	}
	if _, err := plain.setup(); err != nil {
		plain.close()
		return nil, fmt.Errorf("setup: %w", err)
	}
	ps, err := runRounds(plain, half)
	if err == nil {
		_, err = plain.finish()
	}
	wrong := plain.wrongOutputs()
	plain.close()
	if err != nil {
		return nil, err
	}

	tr := newTracing()
	b, err := newBench(name, seed, tr)
	if err != nil {
		return nil, err
	}
	defer b.close()
	if _, err := b.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	before := tr.tel.Registry().Snapshot()
	tr.roundsStart = time.Now()
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	ts, err := runRounds(b, half)
	samples, perr := prof.stop()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	after := tr.tel.Registry().Snapshot()
	traces := tr.req.Last(0)
	if _, err := b.finish(); err != nil {
		return nil, err
	}
	wrong += b.wrongOutputs()

	m := map[string]metric{}
	for layer, secs := range attributeCPU(samples) {
		m["cpu."+layer+"_s"] = metric{secs / float64(ts.rounds), "s"}
	}
	ph := b.phases()
	perRound := func(d time.Duration) float64 { return d.Seconds() / float64(ts.rounds) }
	once := perRound
	if ph.setupOnce {
		once = time.Duration.Seconds
	}
	m["phase.env_new_s"] = metric{once(ph.envNew), "s"}
	m["phase.setup_s"] = metric{once(ph.setup), "s"}
	m["phase.run_s"] = metric{perRound(ph.run), "s"}
	m["phase.verify_s"] = metric{once(ph.verify), "s"}
	perKernel := 0.0
	if ph.runKernels > 0 {
		perKernel = float64(ph.run.Microseconds()) / float64(ph.runKernels)
	}
	m["host_us_per_kernel"] = metric{perKernel, "us"}
	for k, v := range layerCounts(before, after, ts.rounds) {
		m[k] = v
	}
	for k, v := range serveMetrics(before, after, ts.rounds, tr) {
		m[k] = v
	}
	for k, v := range stageMetrics(traces, tr.roundsStart) {
		m[k] = v
	}
	overhead := (median(ts.wall)/median(ps.wall) - 1) * 100
	m["trace.overhead_pct"] = metric{overhead, "%"}
	return &result{Correct: wrong == 0, Attempted: ps.ops + ts.ops, Failed: ps.failed + ts.failed, Metrics: m}, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's resident-set high-water mark (Linux reports
// maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}

// percentile is the nearest-rank percentile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
