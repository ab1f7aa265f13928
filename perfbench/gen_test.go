package main

import (
	"reflect"
	"testing"

	"repro/internal/artifact"
	"repro/internal/ir"
)

func mustGenerate(t *testing.T, w workloadSpec, seed int64) *inputs {
	t.Helper()
	in, err := generate(w, seed, 2)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	return in
}

// The same seed must give identical campaign seeds, IR sources and job
// schedule; another seed must give different ones.
func TestGenerateIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := mustGenerate(t, w, 7), mustGenerate(t, w, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated different inputs twice", w.name)
		}
		c := mustGenerate(t, w, 8)
		if reflect.DeepEqual(a.Reps, c.Reps) && w.rates != nil {
			t.Errorf("%s: seeds 7 and 8 generated the same campaigns", w.name)
		}
		if w.nominalJobs > 0 {
			if reflect.DeepEqual(a.Programs, c.Programs) {
				t.Errorf("%s: seeds 7 and 8 generated the same programs", w.name)
			}
			if reflect.DeepEqual(a.Jobs, c.Jobs) {
				t.Errorf("%s: seeds 7 and 8 generated the same job schedule", w.name)
			}
		}
	}
}

// Every seed runs the same mix, so seeds differ only in what the mix is
// made of.
func TestGenerateKeepsTheMix(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{1, 2} {
			in := mustGenerate(t, w, seed)
			if w.rates != nil {
				if len(in.Reps) != w.reps {
					t.Fatalf("%s: %d repetitions, want %d", w.name, len(in.Reps), w.reps)
				}
				for _, rep := range in.Reps {
					perKernel := map[string]int{}
					for _, c := range rep {
						perKernel[c.Bench]++
					}
					for _, k := range w.kernels {
						if perKernel[k] != w.seedsPerKernel {
							t.Errorf("%s: kernel %s has %d campaigns in a repetition, want %d", w.name, k, perKernel[k], w.seedsPerKernel)
						}
					}
				}
				continue
			}
			kinds := map[jobKind]int{}
			for _, j := range in.Jobs {
				kinds[j.Kind]++
			}
			n := len(in.Jobs)
			if kinds[jobBuiltin] != n/2 || kinds[jobNewProgram] != n/4 || kinds[jobResubmit] != n/4 {
				t.Errorf("%s seed %d: job mix %v of %d jobs, want halves and quarters", w.name, seed, kinds, n)
			}
		}
	}
}

// New programs must be admissible and new: distinct from each other and
// from the programs admitted during set-up.
func TestGeneratedProgramsAreNewAndAdmissible(t *testing.T) {
	w, err := workloadByName("jobs-service")
	if err != nil {
		t.Fatal(err)
	}
	in := mustGenerate(t, w, 3)
	seen := map[string]bool{}
	check := func(src string) {
		f, err := ir.ParseFuncLimits(src, ir.DefaultParseLimits())
		if err != nil {
			t.Fatalf("generated program does not parse: %v", err)
		}
		fp := artifact.Fingerprint(f)
		if seen[fp] {
			t.Errorf("program %s generated twice", fp)
		}
		seen[fp] = true
	}
	for _, src := range in.Programs {
		check(src)
	}
	for _, j := range in.Jobs {
		if j.Kind == jobNewProgram {
			check(j.Source)
		}
	}
}
