package main

import (
	"fmt"
	"math/rand"

	"repro/internal/artifact"
	"repro/internal/ir"
	"repro/internal/service"
	"repro/internal/workload"
)

// workloadSpec fixes what a workload runs. Everything that varies from
// run to run is drawn from the seed by generate.
type workloadSpec struct {
	name    string
	kernels []string
	// campaign workloads: seedsPerKernel campaigns per kernel and
	// repetition. rates are
	// the kernels' trial rates with 2 workers on the reference host (2
	// vCPUs); campaigns are sized from them so each takes about the same
	// time and the timed phase about the requested seconds.
	seedsPerKernel int
	rates          []float64
	// jobs-service: seconds × nominalJobs jobs, initialPrograms programs
	// admitted during set-up.
	nominalJobs     float64
	initialPrograms int
	// reps is how often a run repeats set-up and its share of the timed
	// work; setup_s is the median repetition's set-up.
	reps int
}

var workloads = []workloadSpec{
	{name: "campaign-small", kernels: []string{"exchange2", "hmmer", "gcc", "gobmk"},
		seedsPerKernel: 12, rates: []float64{10200, 7200, 4500, 5000}, reps: 3},
	{name: "campaign-bigmem", kernels: []string{"bwaves", "omnetpp", "leslie3d", "zeusmp"},
		seedsPerKernel: 3, rates: []float64{800, 810, 860, 805}, reps: 4},
	{name: "jobs-service", kernels: []string{"exchange2", "hmmer", "gcc", "gobmk"},
		nominalJobs: 72, initialPrograms: 192, reps: 16},
}

// bigfootKernels are the 131K-word kernels kept out of the gated set
// (their trial rate swings 2× between identical runs) and measured only
// by the traced trial-interior probe, which records the footprint slope.
var bigfootKernels = []string{"lbm", "mcf"}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// campaign is one library fault campaign of a campaign workload.
type campaign struct {
	Bench  string
	Seed   int64
	Trials int
}

type jobKind int

const (
	jobBuiltin    jobKind = iota // a built-in kernel
	jobNewProgram                // POST /programs of a program never seen, then its job
	jobResubmit                  // POST /programs of an initial program (a cache hit), then its job
)

func (k jobKind) String() string {
	return [...]string{"builtin", "new-program", "resubmit"}[k]
}

// job is one entry of the jobs-service schedule. Program indexes inputs.Programs
// for resubmissions; Source holds a new program's IR text.
type job struct {
	Kind    jobKind
	Bench   string
	Source  string
	Program int
	Seed    int64
	Trials  int
}

// inputs is everything a run feeds the program, derived from the seed.
type inputs struct {
	Reps     [][]campaign // campaign workloads: the campaigns of each repetition
	Programs []string     // jobs-service: IR sources admitted during set-up
	Jobs     []job
}

// generate derives a workload's inputs from seed: campaign seeds and
// sizes, program sources and the job schedule. The same (spec, seed,
// seconds) always yields identical inputs.
func generate(w workloadSpec, seed int64, seconds int) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	if w.rates != nil {
		perCampaign := float64(seconds) / float64(w.reps*len(w.kernels)*w.seedsPerKernel)
		for r := 0; r < w.reps; r++ {
			// Round-robin over the kernels so every stretch of the timed
			// phase runs the same mix.
			var rep []campaign
			for s := 0; s < w.seedsPerKernel; s++ {
				for k, name := range w.kernels {
					trials := max(16, int(perCampaign*w.rates[k])/8*8)
					rep = append(rep, campaign{Bench: name, Seed: rng.Int63(), Trials: trials})
				}
			}
			in.Reps = append(in.Reps, rep)
		}
		return in, nil
	}

	seen := map[string]bool{}
	newProgram := func() (string, error) {
		for tries := 0; tries < 1000; tries++ {
			src, fp, err := admissibleProgram(rng.Int63())
			if err != nil {
				return "", err
			}
			if src != "" && !seen[fp] {
				seen[fp] = true
				return src, nil
			}
		}
		return "", fmt.Errorf("no new admissible program in 1000 draws")
	}
	for i := 0; i < w.initialPrograms; i++ {
		src, err := newProgram()
		if err != nil {
			return nil, err
		}
		in.Programs = append(in.Programs, src)
	}
	// The schedule is stratified so every seed runs the same mix: half
	// built-in jobs spread evenly over the kernels, a quarter new
	// programs and a quarter resubmissions, with trial counts cycling
	// over 16, 24 and 32. The seed picks the order, the campaign seeds
	// and the programs.
	n := int(float64(seconds)*w.nominalJobs) / 8 * 8
	builtins := 0
	for i := 0; i < n; i++ {
		j := job{Seed: rng.Int63(), Trials: 16 + 8*(i/4%3)}
		switch i % 4 {
		case 0, 1:
			k := len(w.kernels)
			j.Kind, j.Bench, j.Trials = jobBuiltin, w.kernels[builtins%k], 16+8*(builtins/k%3)
			builtins++
		case 2:
			src, err := newProgram()
			if err != nil {
				return nil, err
			}
			j.Kind, j.Source = jobNewProgram, src
		default:
			j.Kind, j.Program = jobResubmit, rng.Intn(len(in.Programs))
		}
		in.Jobs = append(in.Jobs, j)
	}
	rng.Shuffle(len(in.Jobs), func(a, b int) { in.Jobs[a], in.Jobs[b] = in.Jobs[b], in.Jobs[a] })
	return in, nil
}

// admissibleProgram renders workload.Fuzz(seed) as IR text and reports it
// with its fingerprint when it passes the service's admission envelope,
// or "" when it does not.
func admissibleProgram(seed int64) (src, fp string, err error) {
	text := workload.Fuzz(seed).String()
	f, err := ir.ParseFuncLimits(text, ir.DefaultParseLimits())
	if err != nil {
		return "", "", fmt.Errorf("fuzz program %d does not parse: %w", seed, err)
	}
	if f.Verify() != nil {
		return "", "", nil
	}
	it, err := ir.RunIR(f)
	if err != nil || it.Executed > service.DefaultTenantStepBudget {
		return "", "", nil
	}
	return text, artifact.Fingerprint(f), nil
}
