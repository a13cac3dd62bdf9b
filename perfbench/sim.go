package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/gpm-sim/gpm/internal/crash"
	"github.com/gpm-sim/gpm/internal/experiments"
	"github.com/gpm-sim/gpm/internal/pmem"
	"github.com/gpm-sim/gpm/internal/sim"
	"github.com/gpm-sim/gpm/internal/telemetry"
	"github.com/gpm-sim/gpm/internal/workloads"
)

// The campaign is the one the repository's recover-smoke target runs:
// gpmrecover -quick -sweep -maxpoints 2 -recrash-depth 1 (seed 7).
const (
	campaignSeed      = 7
	campaignMaxPoints = 2
	campaignRecrash   = 1
)

// figureModes are the systems each figure run compares (Fig 9, Table 4).
var figureModes = []workloads.Mode{workloads.CAPfs, workloads.CAPmm, workloads.GPM}

// simOp is one operation of a simulator workload.
type simOp struct {
	kind  int // opCell, opReference, opFigure or opRestore
	mk    func() workloads.Workload
	crash func() workloads.Crasher
	mode  workloads.Mode
}

const (
	// opCell is one crash-campaign cell: a workload under one mode, crashed
	// under every fault model at every swept point, each crash with one
	// nested re-crash.
	opCell = iota
	// opReference is a campaign workload's crash-free GPM run.
	opReference
	// opFigure is one Fig 9 / Table 4 run of a workload under one mode.
	opFigure
	// opRestore is one Table 5 run: calibrate, crash at 90% of the run's
	// device operations under GPM, recover, verify.
	opRestore
)

// simBench runs the crash campaign or the paper-figure runs.
type simBench struct {
	name   string
	cfg    workloads.Config
	tel    *telemetry.Telemetry
	ops    []simOp // one round
	setupW []func() workloads.Workload

	totals *simTotals // first round's totals; later rounds must repeat them
	ph     phaseTimes
	wrong  wrongLog
}

// newSimBench builds the campaign or the figure runs. Their inputs are the
// paper configuration's and do not depend on the seed, and their runs go in
// one fixed order (gpmrecover's, and the paper's presentation order), so the
// heap's history repeats: a seed-shuffled order moved peak RSS by 20%
// between runs.
func newSimBench(name string, tr *tracing) *simBench {
	b := &simBench{name: name}
	if tr != nil {
		b.tel = tr.tel
	}
	if name == "campaign" {
		b.cfg = workloads.QuickConfig()
		b.cfg.Workers = 1 // serial: the determinism reference
		for _, mk := range campaignWorkloads() {
			mk := mk
			b.setupW = append(b.setupW, func() workloads.Workload { return mk() })
			w := mk()
			b.ops = append(b.ops, simOp{kind: opReference, mk: func() workloads.Workload { return mk() }, crash: mk, mode: workloads.GPM})
			for _, mode := range crash.CrashStudyModes {
				if w.Supports(mode) {
					b.ops = append(b.ops, simOp{kind: opCell, crash: mk, mode: mode})
				}
			}
		}
	} else {
		b.cfg = workloads.DefaultConfig()
		b.cfg.Workers = runtime.NumCPU()
		b.setupW = experiments.Suite()
		for _, mk := range experiments.Suite() {
			for _, mode := range figureModes {
				b.ops = append(b.ops, simOp{kind: opFigure, mk: mk, mode: mode})
			}
		}
		for _, mk := range experiments.Crashers() {
			mk := mk
			b.ops = append(b.ops, simOp{kind: opRestore, mk: func() workloads.Workload { return mk() }, crash: mk, mode: workloads.GPM})
		}
	}
	b.cfg.Telemetry = b.tel
	return b
}

// campaignWorkloads are every recoverable workload, as gpmrecover sweeps them.
func campaignWorkloads() []func() workloads.Crasher {
	return append(experiments.Crashers(), experiments.NativeCrashers()...)
}

// setup builds and loads one fresh node per workload variant of the round
// (NewEnv + Workload.Setup under GPM) — the construction every run of the
// round repeats — and drops them.
func (b *simBench) setup() (time.Duration, error) {
	cfg := b.cfg
	cfg.Telemetry = nil
	start := time.Now()
	for _, mk := range b.setupW {
		w := mk()
		env := workloads.NewEnv(workloads.GPM, cfg)
		if err := w.Setup(env); err != nil {
			return 0, fmt.Errorf("%s setup: %w", w.Name(), err)
		}
	}
	return time.Since(start), nil
}

func (b *simBench) round() (roundStats, error) {
	var rs roundStats
	// A fresh campaign per round, so every round pays for its own
	// calibration runs (memoized within the campaign, per workload × mode).
	camp := &crash.Campaign{Seed: campaignSeed, MaxPoints: campaignMaxPoints, RecrashDepth: campaignRecrash, Workers: 1}
	var tot simTotals
	reports := map[string]map[workloads.Mode]*workloads.Report{}
	campaignRuns := 0
	for _, op := range b.ops {
		start := time.Now()
		switch op.kind {
		case opCell:
			camp.Modes = []workloads.Mode{op.mode}
			wc, err := camp.Run(op.crash, b.cfg)
			if err != nil {
				return rs, fmt.Errorf("campaign: %w", err)
			}
			if want := len(pmem.Models()) * campaignMaxPoints; len(wc.Runs) != want {
				b.wrong.add("campaign %s/%s made %d runs, want %d", wc.Workload, op.mode, len(wc.Runs), want)
			}
			for _, r := range wc.Runs {
				campaignRuns++
				if r.Err != "" {
					b.wrong.add("campaign %s/%s/%s@%d did not recover: %s", r.Workload, r.Mode, r.Model, r.CrashAt, r.Err)
				}
				tot.restore += time.Duration(math.Round(r.RestoreUS * 1e3))
			}
		case opReference:
			opTime, err := b.runPhased(op.mk(), op.mode)
			if err != nil {
				return rs, err
			}
			tot.gpm += time.Duration(opTime)
		case opFigure:
			if b.tel != nil {
				if _, err := b.runPhased(op.mk(), op.mode); err != nil {
					return rs, err
				}
				break
			}
			rep, err := workloads.RunWorkload(op.mk(), workloads.WithMode(op.mode), workloads.WithConfig(b.cfg))
			if err != nil {
				return rs, fmt.Errorf("figure run: %w", err)
			}
			if reports[rep.Workload] == nil {
				reports[rep.Workload] = map[workloads.Mode]*workloads.Report{}
			}
			reports[rep.Workload][op.mode] = rep
		case opRestore:
			total, err := crash.CountOps(op.crash(), workloads.GPM, b.cfg)
			if err != nil {
				return rs, fmt.Errorf("table 5 calibration: %w", err)
			}
			at := total * 9 / 10
			if at < 1 {
				at = 1
			}
			rep, err := workloads.RunWorkload(op.mk(), workloads.WithMode(workloads.GPM), workloads.WithConfig(b.cfg), workloads.WithCrashAt(at))
			if err != nil {
				return rs, fmt.Errorf("table 5 run: %w", err)
			}
			if rep.Restore <= 0 {
				b.wrong.add("table 5 %s: no simulated restore time", rep.Workload)
			}
			tot.restore += time.Duration(rep.Restore)
		}
		rs.lat = append(rs.lat, time.Since(start))
		rs.ops++
	}
	if b.name == "campaign" {
		if want := b.campaignRunCount(); campaignRuns != want {
			b.wrong.add("campaign made %d runs, want %d", campaignRuns, want)
		}
	} else if b.tel == nil {
		gpm, err := checkFigures(reports)
		if err != nil {
			b.wrong.add("%v", err)
		}
		tot.gpm = gpm
	}
	if b.tel != nil {
		return rs, nil // the traced round's simulated totals are not reported
	}
	if b.totals == nil {
		b.totals = &tot
	} else if *b.totals != tot {
		b.wrong.add("%s simulated totals changed between rounds: %+v then %+v", b.name, *b.totals, tot)
	}
	return rs, nil
}

// campaignRunCount is the product of the swept axes: for each workload, the
// crash-study modes it supports × fault models × crash points.
func (b *simBench) campaignRunCount() int {
	n := 0
	for _, mk := range campaignWorkloads() {
		w := mk()
		for _, mode := range crash.CrashStudyModes {
			if w.Supports(mode) {
				n += len(pmem.Models()) * campaignMaxPoints
			}
		}
	}
	return n
}

// runPhased makes one crash-free run through the Workload interface, timing
// each phase, and returns its simulated operation time.
func (b *simBench) runPhased(w workloads.Workload, mode workloads.Mode) (sim.Duration, error) {
	if !w.Supports(mode) {
		return 0, fmt.Errorf("%s does not support %s", w.Name(), mode)
	}
	kernels := func() int64 { return b.tel.Registry().Counter("gpu.kernels").Value() }
	t0 := time.Now()
	env := workloads.NewEnv(mode, b.cfg)
	if b.tel != nil {
		env.Ctx.AttachTelemetry(b.tel, w.Name()+"/"+mode.String())
	}
	t1 := time.Now()
	if err := w.Setup(env); err != nil {
		return 0, fmt.Errorf("%s/%s setup: %w", w.Name(), mode, err)
	}
	t2 := time.Now()
	env.BeginOps()
	var k0 int64
	if b.tel != nil {
		k0 = kernels()
	}
	if err := w.Run(env); err != nil {
		return 0, fmt.Errorf("%s/%s run: %w", w.Name(), mode, err)
	}
	t3 := time.Now()
	if b.tel != nil {
		b.ph.runKernels += kernels() - k0
	}
	opTime := env.OpTime()
	if err := w.Verify(env); err != nil {
		b.wrong.add("%s/%s verify: %v", w.Name(), mode, err)
	}
	t4 := time.Now()
	b.ph.envNew += t1.Sub(t0)
	b.ph.setup += t2.Sub(t1)
	b.ph.run += t3.Sub(t2)
	b.ph.verify += t4.Sub(t3)
	return opTime, nil
}

func (b *simBench) finish() (simTotals, error) {
	if b.totals == nil {
		return simTotals{}, nil
	}
	if b.totals.gpm <= 0 || b.totals.restore <= 0 {
		b.wrong.add("%s: simulated totals must be positive, got %+v", b.name, *b.totals)
	}
	return *b.totals, nil
}

func (b *simBench) phases() phaseTimes { return b.ph }
func (b *simBench) wrongOutputs() int  { return b.wrong.n }
func (b *simBench) close()             {}
