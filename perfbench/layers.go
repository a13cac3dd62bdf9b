package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/gpm-sim/gpm/internal/obs"
	"github.com/gpm-sim/gpm/internal/telemetry"
)

// tracing is what a traced run turns on: the program's telemetry registry
// and span tracer, and the serving layer's sampled request tracer.
type tracing struct {
	tel         *telemetry.Telemetry
	req         *obs.RequestTracer
	roundsStart time.Time // traces before this instant belong to set-up
	gets        int64     // GET requests sent during the traced rounds
}

// traceSampleEvery and traceBuf size the request tracer so that the ring
// holds the traces of several seconds of load at 100k requests/s.
const (
	traceSampleEvery = 64
	traceBuf         = 8192
)

func newTracing() *tracing {
	return &tracing{
		tel: telemetry.New(),
		req: obs.NewRequestTracer(traceSampleEvery, 0, traceBuf),
	}
}

// simCounts are the per-layer counts of simulated work; each is exact and
// repeats bit for bit on the simulator workloads.
var simCounts = []string{
	"gpu.kernels", "gpu.fences", "gpu.pm_write_bytes", "gpu.hbm_bytes",
	"pmem.write_bytes", "pmem.persist_lines", "llc.flushed_lines", "llc.evictions",
	"pcie.txns", "pcie.dma_transfers", "log.hcl.inserts", "gpm.persist_epochs",
	"gpm.checkpoints", "pmem.crashes", "pmem.crash_lines_rolled_back", "crash.recovery_attempts",
}

// layerCounts reports each simulated count per round of the traced segment.
func layerCounts(before, after telemetry.Snapshot, rounds int) map[string]metric {
	m := map[string]metric{}
	for _, name := range simCounts {
		unit := "count"
		if strings.HasSuffix(name, "_bytes") {
			unit = "bytes"
		}
		d := after.Counters[name] - before.Counters[name]
		m[name] = metric{float64(d) / float64(rounds), unit}
	}
	return m
}

// serveMetrics reads the serving pipeline's own registry: queue wait and
// epoch lag quantiles, batch counts and fill, write squashing and the
// hot-key cache. Every serve.shard<i>.* counter sums over shards.
func serveMetrics(before, after telemetry.Snapshot, rounds int, tr *tracing) map[string]metric {
	perRound := func(v int64) float64 { return float64(v) / float64(rounds) }
	shardSum := func(suffix string) int64 {
		var n int64
		for name, v := range after.Counters {
			if strings.HasPrefix(name, "serve.shard") && strings.HasSuffix(name, "."+suffix) {
				n += v - before.Counters[name]
			}
		}
		return n
	}
	m := map[string]metric{}
	qw := histDelta(before.Histograms["serve.queue_wait_us"], after.Histograms["serve.queue_wait_us"])
	lag := histDelta(before.Histograms["serve.epoch_lag_us"], after.Histograms["serve.epoch_lag_us"])
	m["serve.queue_wait_us.p50"] = metric{histQuantile(qw, 0.50), "us"}
	m["serve.queue_wait_us.p99"] = metric{histQuantile(qw, 0.99), "us"}
	m["serve.epoch_lag_us.p50"] = metric{histQuantile(lag, 0.50), "us"}
	m["serve.epoch_lag_us.p99"] = metric{histQuantile(lag, 0.99), "us"}

	var fillSum, fillN int64
	for name, h := range after.Histograms {
		if strings.HasPrefix(name, "serve.shard") && strings.HasSuffix(name, ".batch_fill") {
			d := histDelta(before.Histograms[name], h)
			fillSum += d.Sum
			fillN += d.Count()
		}
	}
	sim := histDelta(before.Histograms["serve.batch_sim_us"], after.Histograms["serve.batch_sim_us"])
	m["serve.batches"] = metric{perRound(shardSum("batches")), "count"}
	m["serve.batch_fill.mean"] = metric{ratio(fillSum, fillN), "ops"}
	m["serve.batch_sim_us.mean"] = metric{ratio(sim.Sum, sim.Count()), "us"}
	m["serve.squashes"] = metric{perRound(shardSum("squashes")), "count"}
	hits := shardSum("cache_hits")
	m["serve.cache_hits"] = metric{perRound(hits), "count"}
	m["serve.cache_hit_ratio"] = metric{ratio(hits, tr.gets), "ratio"}
	return m
}

// stageNames are the pipeline stages of a request trace, in order.
var stageNames = []string{"admit", "seal", "stage", "kernel", "persist", "commit"}

// stageMetrics gives the median time each sampled request spent in each
// pipeline stage (a stage's time runs from the previous stage point). Traces
// of cache-served GETs, which skip the pipeline, count only for admit.
func stageMetrics(traces []obs.ReqTrace, since time.Time) map[string]metric {
	per := map[string][]float64{}
	for _, tr := range traces {
		if tr.Start.Before(since) {
			continue
		}
		prev := 0.0
		for _, sp := range tr.Stages {
			per[sp.Stage] = append(per[sp.Stage], sp.OffsetUS-prev)
			prev = sp.OffsetUS
		}
	}
	m := map[string]metric{}
	for _, st := range stageNames {
		v := 0.0
		if len(per[st]) > 0 {
			v = median(per[st])
		}
		m["trace."+st+"_us.p50"] = metric{v, "us"}
	}
	return m
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// histDelta is the histogram of the observations made between two snapshots.
func histDelta(before, after telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	d := telemetry.HistogramSnapshot{Bounds: after.Bounds, Counts: make([]int64, len(after.Counts)), Sum: after.Sum - before.Sum}
	for i, c := range after.Counts {
		d.Counts[i] = c
		if i < len(before.Counts) {
			d.Counts[i] -= before.Counts[i]
		}
	}
	return d
}

// histQuantile interpolates the q-quantile linearly inside the bucket that
// holds it; the overflow bucket reports its lower bound.
func histQuantile(h telemetry.HistogramSnapshot, q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var seen float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = float64(h.Bounds[i-1])
			}
			if i >= len(h.Bounds) {
				return lo
			}
			hi := float64(h.Bounds[i])
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return float64(h.Bounds[len(h.Bounds)-1])
}

// wrongLog counts outputs that did not match their reference and prints
// the first few to standard error.
type wrongLog struct{ n int }

func (w *wrongLog) add(format string, args ...interface{}) {
	w.n++
	if w.n <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: wrong output: "+format+"\n", args...)
	}
}

// sortedKeys returns a metric map's names in order.
func sortedKeys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
