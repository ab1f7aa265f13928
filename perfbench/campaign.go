package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	turnpike "repro"
	"repro/internal/fault"
)

// runCampaigns measures a campaign workload in repetitions, one per
// entry of in.Reps. Each repetition prepares its campaigns (compile,
// golden run, worker priming) as its set-up and then runs each of them
// once, through the library API, one after another.
func runCampaigns(in *inputs, tr *tracer) (*phase, error) {
	ctx := context.Background()
	ph := &phase{}
	for r, rep := range in.Reps {
		runtime.GC()
		prepared := make([]*turnpike.PreparedFaultCampaign, len(rep))
		start := time.Now()
		for i, c := range rep {
			t0 := time.Now()
			p, err := turnpike.PrepareFaultCampaign(ctx, c.Bench, turnpike.Turnpike, campaignConfig(c))
			tr.record("fault", "prepare", fmt.Sprintf("%d/%d", r, i), t0, time.Now())
			if err != nil {
				return nil, fmt.Errorf("prepare %s seed %d: %w", c.Bench, c.Seed, err)
			}
			prepared[i] = p
		}
		ph.setupS = append(ph.setupS, time.Since(start).Seconds())

		start = time.Now()
		for i, p := range prepared {
			t0 := time.Now()
			res, err := p.Run(ctx)
			t1 := time.Now()
			prepared[i] = nil
			tr.record("fault", "run", fmt.Sprintf("%d/%d", r, i), t0, t1)
			c := rep[i]
			ph.jobS = append(ph.jobS, t1.Sub(t0).Seconds())
			ph.attempted++
			if err != nil {
				ph.fail("campaign %s seed %d: %v", c.Bench, c.Seed, err)
				continue
			}
			ph.addResult(res, fmt.Sprintf("campaign %s seed %d", c.Bench, c.Seed))
			if res.CompletedTrials != c.Trials {
				ph.fail("campaign %s seed %d completed %d of %d trials", c.Bench, c.Seed, res.CompletedTrials, c.Trials)
			}
		}
		ph.wallS += time.Since(start).Seconds()
	}
	var err error
	if ph.peakMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	return ph, nil
}

// campaignConfig is the library configuration of one campaign. A negative
// failure budget records every SDC or crash trial instead of stopping at
// the first, so the benchmark counts them all.
func campaignConfig(c campaign) turnpike.FaultCampaignConfig {
	return turnpike.FaultCampaignConfig{
		Trials: c.Trials, Seed: c.Seed, SBSize: sbSize, WCDL: wcdl, ScalePct: scalePct,
		Workers: workers, FailureBudget: -1,
	}
}

// addResult counts one merged campaign result into the phase; what names
// the campaign in a correctness problem.
func (ph *phase) addResult(r *fault.Result, what string) {
	ph.trials += r.CompletedTrials
	ph.attempted += r.CompletedTrials
	if bad := r.Outcomes[fault.SDC] + r.Outcomes[fault.Crash]; bad > 0 {
		ph.failedTrials += bad
		ph.failed += bad
		ph.note("%s: %d SDC and %d crash trial(s), first failure %+v", what, r.Outcomes[fault.SDC], r.Outcomes[fault.Crash], r.Failures[0])
	}
	ph.simInsts += r.Agg.Insts
	ph.simCycles += r.Agg.Cycles
}
