package main

import (
	"os"
	"testing"
	"time"
)

func TestLayerOfStackChargesInnermostRepoFrame(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		// Zeroing a fresh node's memory counts against memsys, which asked.
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice",
			"github.com/gpm-sim/gpm/internal/memsys.New", "github.com/gpm-sim/gpm/internal/core.NewContext",
			"github.com/gpm-sim/gpm/internal/workloads.NewEnv", "main.(*simBench).round"}, "memsys"},
		{[]string{"github.com/gpm-sim/gpm/internal/gpu.(*Block).run", "github.com/gpm-sim/gpm/internal/gpu.(*Device).Launch"}, "gpu"},
		{[]string{"sync.(*Mutex).Lock", "github.com/gpm-sim/gpm/internal/serve/client.(*Conn).Get"}, "serve"},
		{[]string{"github.com/gpm-sim/gpm/internal/stencil.(*CFD).Run.func1"}, "apps"},
		{[]string{"bufio.(*Reader).ReadSlice", "main.(*kvClient).exchange"}, "bench"},
		{[]string{"strconv.AppendUint", "github.com/gpm-sim/gpm/perfbench.value"}, "bench"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{nil, "runtime"},
	}
	for _, c := range cases {
		if got := layerOfStack(c.stack); got != c.want {
			t.Errorf("layerOfStack(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestEveryProgramPackageHasALayer(t *testing.T) {
	entries, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && layerOfPackage[e.Name()] == "" {
			t.Errorf("internal/%s has no layer in layerOfPackage", e.Name())
		}
	}
	for _, l := range layerOfPackage {
		found := false
		for _, c := range cpuLayers {
			found = found || c == l
		}
		if !found {
			t.Errorf("layer %s is not in cpuLayers", l)
		}
	}
}

// tracesText is the shape of "go tool pprof -traces" output.
const tracesText = `File: perfbench
Type: cpu
Duration: 1.20s, Total samples = 60ms ( 5.00%)
-----------+-------------------------------------------------------
      30ms   runtime.memclrNoHeapPointers
             github.com/gpm-sim/gpm/internal/pmem.New (inline)
             main.(*simBench).round
-----------+-------------------------------------------------------
      10ms   github.com/gpm-sim/gpm/internal/gpu.(*Block).run
-----------+-------------------------------------------------------
      1.02s   runtime.mcall
-----------+-------------------------------------------------------
`

func TestParseTracesAndAttribute(t *testing.T) {
	samples, err := parseTraces(tracesText)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 || len(samples[0].stack) != 3 || samples[0].stack[1] != "github.com/gpm-sim/gpm/internal/pmem.New" {
		t.Fatalf("parsed %+v", samples)
	}
	got := attributeCPU(samples)
	if got["pmem"] != 0.03 || got["gpu"] != 0.01 || got["runtime"] != 1.02 || len(got) != len(cpuLayers) {
		t.Fatalf("attribution %v", got)
	}
}

// spin burns CPU in a benchmark frame.
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		n++
	}
	return n
}

func TestProfileOfThisProcess(t *testing.T) {
	p, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	samples, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	if got := attributeCPU(samples); got["bench"] < 0.1 {
		t.Fatalf("300 ms of spinning charged %v s to bench (all: %v)", got["bench"], got)
	}
}
