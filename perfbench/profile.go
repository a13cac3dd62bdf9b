package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// repoPrefix is the import path prefix of the program's packages.
const repoPrefix = "github.com/gpm-sim/gpm/internal/"

// benchPrefix is the benchmark's own import path (package main in a test
// binary); outside tests its frames are named "main.".
const benchPrefix = "github.com/gpm-sim/gpm/perfbench."

// layerOfPackage maps each program package to the layer its CPU time is
// charged to. The workload packages are the applications; sim holds the
// timing models and access statistics the memory system keeps; cpusim models
// the CPU threads of the CAP persist phases; obs and faultnet belong to the
// serving stack.
var layerOfPackage = map[string]string{
	"gpu":         "gpu",
	"memsys":      "memsys",
	"sim":         "memsys",
	"cxl":         "memsys",
	"pmem":        "pmem",
	"cache":       "cache",
	"pcie":        "pcie",
	"core":        "core",
	"cap":         "cap",
	"cpusim":      "cap",
	"fsim":        "fsim",
	"kvstore":     "apps",
	"gpdb":        "apps",
	"dnn":         "apps",
	"stencil":     "apps",
	"finance":     "apps",
	"graph":       "apps",
	"scan":        "apps",
	"experiments": "apps",
	"workloads":   "workloads",
	"crash":       "crash",
	"serve":       "serve",
	"obs":         "serve",
	"faultnet":    "serve",
	"telemetry":   "telemetry",
}

// cpuLayers are every layer a CPU sample can be charged to.
var cpuLayers = []string{"gpu", "memsys", "pmem", "cache", "pcie", "core", "cap", "fsim",
	"apps", "workloads", "crash", "serve", "telemetry", "bench", "runtime"}

// layerOf names the layer of one function, or "" when the function is not
// the program's or the benchmark's (runtime, standard library).
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, benchPrefix) {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	return layerOfPackage[pkg]
}

// cpuSample is one profile sample: its stack, innermost frame first
// (inlined frames included), and the CPU time it stands for.
type cpuSample struct {
	stack []string
	ns    int64
}

// layerOfStack charges a stack to its innermost frame in a repository
// package, so runtime work such as zeroing memory counts against whoever
// asked for it. A stack with no repository frame is the runtime's.
func layerOfStack(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return "runtime"
}

// attributeCPU sums the samples' CPU seconds per layer; every layer is
// present.
func attributeCPU(samples []cpuSample) map[string]float64 {
	out := map[string]float64{}
	for _, l := range cpuLayers {
		out[l] = 0
	}
	for _, s := range samples {
		out[layerOfStack(s.stack)] += float64(s.ns) / 1e9
	}
	return out
}

// profiler is a running CPU profile of this process, written to a file
// beside the benchmark's binary.
type profiler struct{ f *os.File }

func startProfile() (*profiler, error) {
	dir := "."
	if exe, err := os.Executable(); err == nil {
		dir = filepath.Dir(exe)
	}
	f, err := os.CreateTemp(dir, "cpu-*.pprof")
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return &profiler{f: f}, nil
}

// stop ends the profile and has the Go toolchain's pprof decode it.
func (p *profiler) stop() ([]cpuSample, error) {
	pprof.StopCPUProfile()
	defer os.Remove(p.f.Name())
	if err := p.f.Close(); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-symbolize=none", p.f.Name()).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTraces(string(out))
}

// parseTraces reads the text of "go tool pprof -traces": after a header,
// one block per sample stack, each opened by a dashed separator line; the
// block's first line holds the sample's value and its innermost function,
// every further line one caller.
func parseTraces(text string) ([]cpuSample, error) {
	var out []cpuSample
	var cur *cpuSample
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			out = append(out, cpuSample{})
			cur = &out[len(out)-1]
			continue
		}
		if cur == nil || strings.TrimSpace(line) == "" {
			continue
		}
		if len(cur.stack) == 0 {
			val, fn, ok := strings.Cut(strings.TrimSpace(line), " ")
			if !ok {
				return nil, fmt.Errorf("go tool pprof: unreadable sample line %q", line)
			}
			d, err := time.ParseDuration(val)
			if err != nil {
				return nil, fmt.Errorf("go tool pprof: sample value: %w", err)
			}
			cur.ns = int64(d)
			line = fn
		}
		cur.stack = append(cur.stack, strings.TrimSuffix(strings.TrimSpace(line), " (inline)"))
	}
	// The last separator closes the last block.
	if n := len(out); n > 0 && len(out[n-1].stack) == 0 {
		out = out[:n-1]
	}
	return out, nil
}
