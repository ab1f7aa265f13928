package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	turnpike "repro"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// The campaign configuration every workload uses: the library defaults
// (Cortex-A53 store buffer, ~300 sensors, 10% scale) and 2 trial workers.
const (
	sbSize   = 4
	wcdl     = 10
	scalePct = 10
	workers  = 2
)

// modelFacts are the deterministic numbers of the simulated machine a
// workload runs on. They must repeat exactly across runs.
type modelFacts struct {
	// Overhead is the geomean over the kernels of
	// turnpike.Evaluate(...).Overhead (Turnpike cycles / baseline cycles).
	Overhead float64
	// MemWords is the median golden-image size of the kernels, in words.
	MemWords int
}

func measureModel(kernels []string) (modelFacts, error) {
	var ovh, words []float64
	for _, k := range kernels {
		ev, err := turnpike.Evaluate(k, turnpike.Turnpike, turnpike.EvalConfig{SBSize: sbSize, WCDL: wcdl, ScalePct: scalePct})
		if err != nil {
			return modelFacts{}, err
		}
		ovh = append(ovh, ev.Overhead)
		g, err := captureGolden(k)
		if err != nil {
			return modelFacts{}, err
		}
		words = append(words, float64(g.golden.Len()))
	}
	return modelFacts{Overhead: geomean(ovh), MemWords: int(median(words))}, nil
}

// golden is a kernel's golden state as fault/campaign.go builds it: the
// snapshot trials fork from, and the output image they are compared with
// (checkpoint storage and the stack masked out).
type golden struct {
	gs             *pipeline.GoldenState
	golden         *isa.Memory
	ckptLo, ckptHi uint64
}

func captureGolden(kernel string) (*golden, error) {
	p, ok := workload.ByName(kernel)
	if !ok {
		return nil, fmt.Errorf("unknown kernel %q", kernel)
	}
	c, err := turnpike.Compile(p.Build(scalePct), core.TurnpikeAll(sbSize))
	if err != nil {
		return nil, err
	}
	sim, err := pipeline.New(c.Prog, pipeline.TurnpikeConfig(sbSize, wcdl))
	if err != nil {
		return nil, err
	}
	p.SeedMemory(sim.Mem)
	gs, err := pipeline.CaptureGolden(sim)
	if err != nil {
		return nil, err
	}
	masked := isa.NewMemory()
	for _, e := range gs.Output().Snapshot() {
		if e.Addr < isa.StackBase || e.Addr >= isa.StackLimit {
			masked.Store(e.Addr, e.Val)
		}
	}
	return &golden{gs: gs, golden: masked,
		ckptLo: c.Prog.CkptBase, ckptHi: c.Prog.CkptBase + isa.NumRegs*isa.NumColors*8}, nil
}

// timeCompiles records one core.compile span per kernel and scheme.
func timeCompiles(kernels []string, tr *tracer) error {
	schemes := []struct {
		name string
		opt  turnpike.CompileOptions
	}{
		{"baseline", core.Options{Scheme: core.Baseline, SBSize: sbSize}},
		{"turnstile", core.Options{Scheme: core.Turnstile, SBSize: sbSize}},
		{"turnpike", core.TurnpikeAll(sbSize)},
	}
	for _, k := range kernels {
		p, _ := workload.ByName(k)
		f := p.Build(scalePct)
		for _, s := range schemes {
			start := time.Now()
			_, err := turnpike.Compile(f, s.opt)
			tr.record("core", "compile", k+"/"+s.name, start, time.Now())
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// probeTrials replays the public calls of one fault trial (the loop in
// fault/campaign.go exec) on n sampled injections per kernel and records
// a span per step: pipeline.reset (GoldenState.Reset), pipeline.simulate
// (InjectBitFlip and Step to halt), pipeline.drain (DrainOutput) and
// isa.compare (Memory.EqualMasked). It returns the median golden-image
// size of the kernels, each trial's total time in seconds, and the trials
// that ended as SDC or crash.
func probeTrials(kernels []string, n int, seed int64, tr *tracer) (memWords int, trialS []float64, failed int, err error) {
	rng := rand.New(rand.NewSource(seed))
	var words []float64
	for _, k := range kernels {
		g, err := captureGolden(k)
		if err != nil {
			return 0, nil, 0, err
		}
		words = append(words, float64(g.golden.Len()))
		sim, err := g.gs.Fork()
		if err != nil {
			return 0, nil, 0, err
		}
		maxAt := g.gs.Stats().Insts * 9 / 10
		for t := 0; t < n; t++ {
			reg := isa.Reg(1 + rng.Intn(isa.NumRegs-1))
			bit := uint(rng.Intn(64))
			at := uint64(rng.Int63n(int64(maxAt))) + 1
			lat := 1 + rng.Intn(wcdl)

			t0 := time.Now()
			g.gs.Reset(sim)
			t1 := time.Now()
			var runErr error
			injected := false
			for !sim.Halted() && runErr == nil {
				if !injected && sim.Stats.Insts >= at {
					injected = true
					if runErr = sim.InjectBitFlip(reg, bit, lat); runErr != nil {
						break
					}
				}
				runErr = sim.Step()
			}
			t2 := time.Now()
			out := sim.DrainOutput()
			t3 := time.Now()
			equal := out.EqualMasked(g.golden, g.ckptLo, g.ckptHi, isa.StackBase, isa.StackLimit)
			t4 := time.Now()

			trialS = append(trialS, t4.Sub(t0).Seconds())
			id := fmt.Sprintf("%s/%d", k, t)
			tr.record("pipeline", "reset", id, t0, t1)
			tr.record("pipeline", "simulate", id, t1, t2)
			tr.record("pipeline", "drain", id, t2, t3)
			tr.record("isa", "compare", id, t3, t4)
			var due *pipeline.DUEError
			switch {
			case runErr != nil && !errors.As(runErr, &due):
				failed++
			case runErr == nil && !equal:
				failed++
			}
		}
	}
	return int(median(words)), trialS, failed, nil
}
