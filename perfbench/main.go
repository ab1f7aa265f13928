// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One run measures one workload:
//
//	perfbench --workload campaign-small --seed 1 --seconds 10 --trace 0
//
// Run it from the repository root (perfbench/run.sh builds and runs it);
// its files go under .bench_build there.
//
// It prints a human-readable report on standard error and, as the last
// line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 the run is repeated with spans around
// every call into a layer and the metrics are the per-layer ones.
// NOTES.md lists every metric, its unit and the layer each one moves.
// The exit code is 0 only when every correctness check passed.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: campaign-small, campaign-bigmem or jobs-service")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", 10, "nominal length of the timed phase in seconds on the reference host")
		trace   = flag.Int("trace", 0, "1 repeats the run with per-layer spans and prints the per-layer metrics")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (%v)\n", err)
		flag.Usage()
		return 2
	}
	work, err := filepath.Abs(".bench_build")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if w.nominalJobs > 0 {
		// The service's state directory must sit on tmpfs; see jobs.go.
		if os.Getenv(nsEnv) == "" {
			return reexecWithStateFS(work)
		}
		if err := mountStateFS(work); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	in, err := generate(w, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: generate inputs:", err)
		return 1
	}
	rep, err := measure(w, in, *seed, *trace == 1, work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.print(os.Stderr, w.name)
	out := rep.e2e
	if *trace == 1 {
		out = rep.layer
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(rep.problems) == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out.asMap(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if len(rep.problems) > 0 {
		return 1
	}
	return 0
}

// phase is what one measured pass of a workload produced: set-up times,
// the timed phase and the outcome counts its correctness checks use.
type phase struct {
	setupS []float64 // wall time of each set-up pass
	wallS  float64   // wall time of the timed phase
	// jobS is each job's latency: a campaign's Run on campaign workloads,
	// POST /jobs to the terminal state on jobs-service (in schedule order).
	jobS                 []float64
	trials, failedTrials int
	attempted, failed    int
	simInsts, simCycles  uint64
	peakMB               float64
	hitBase              string // jobs-service: the base of artifact.hit_ratio
	problems             []string
	// service holds the service-layer values of jobs-service by metric name.
	service map[string]float64
}

// fail counts one failed operation and records why.
func (ph *phase) fail(format string, args ...any) {
	ph.failed++
	ph.note(format, args...)
}

// note records a correctness problem without counting an operation.
func (ph *phase) note(format string, args ...any) {
	if len(ph.problems) < 20 {
		ph.problems = append(ph.problems, fmt.Sprintf(format, args...))
	}
}

type metric struct {
	Name  string
	Value float64
	Unit  string
}

type metrics []metric

func (ms *metrics) add(name string, value float64, unit string) {
	*ms = append(*ms, metric{name, value, unit})
}

func (ms metrics) asMap() map[string]any {
	out := map[string]any{}
	for _, m := range ms {
		out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return out
}

// set replaces the value of an added metric.
func (ms metrics) set(name string, value float64) {
	for i := range ms {
		if ms[i].Name == name {
			ms[i].Value = value
		}
	}
}

func (ms metrics) get(name string) float64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

// report is a finished run.
type report struct {
	e2e, layer        metrics
	attempted, failed int
	problems          []string // failed correctness checks: the run is not correct
	// mismatches are exact counts that did not repeat. They are flagged,
	// not failed: the correctness gate is SDC/crash trials, jobs done on
	// their first attempt, and service results equal to the library's.
	mismatches []string
	notes      []string // context printed beside the metrics
}

// exactCounts are the numbers that must repeat exactly: across runs of one
// seed and between the untraced and the traced run.
type exactCounts struct {
	Overhead  float64 `json:"turnpike_overhead"`
	MemWords  int     `json:"mem_words"`
	SimInsts  uint64  `json:"sim_insts"`
	SimCycles uint64  `json:"sim_cycles"`
}

// measure runs the workload untraced and, when traced is set, once more
// with spans, and assembles the report.
func measure(w workloadSpec, in *inputs, seed int64, traced bool, work string) (*report, error) {
	ph, err := runPhase(w, in, nil, work)
	if err != nil {
		return nil, err
	}
	facts, err := measureModel(w.kernels)
	if err != nil {
		return nil, err
	}
	rep := &report{attempted: ph.attempted, failed: ph.failed, problems: ph.problems}
	rep.e2e = endToEnd(ph, facts)
	_, tailPct := tail(ph.jobS)
	rep.notes = append(rep.notes,
		fmt.Sprintf("job_tail_s is p%.1f of %d jobs; setup_s is the median of %d repetitions", tailPct, len(ph.jobS), len(ph.setupS)),
		fmt.Sprintf("timed phase %.3g s", ph.wallS))
	exact := exactCounts{facts.Overhead, facts.MemWords, ph.simInsts, ph.simCycles}
	mismatch, err := checkExactRecord(work, w.name, seed, exact)
	if err != nil {
		return nil, err
	}
	if mismatch != "" {
		rep.mismatches = append(rep.mismatches, mismatch)
	}
	if traced {
		if err := measureTraced(rep, w, in, seed, ph, exact, work); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// measureTraced repeats the run with spans around every call into a
// layer, probes the trial interior, and fills rep.layer.
func measureTraced(rep *report, w workloadSpec, in *inputs, seed int64, ph *phase, exact exactCounts, work string) error {
	tr := &tracer{}
	tph, err := runPhase(w, in, tr, work)
	if err != nil {
		return err
	}
	tfacts, err := measureModel(w.kernels)
	if err != nil {
		return err
	}
	if texact := (exactCounts{tfacts.Overhead, tfacts.MemWords, tph.simInsts, tph.simCycles}); texact != exact {
		rep.mismatches = append(rep.mismatches, fmt.Sprintf("traced run counts %+v differ from the untraced run's %+v", texact, exact))
	}
	rep.attempted += tph.attempted
	rep.failed += tph.failed
	rep.problems = append(rep.problems, tph.problems...)
	if err := timeCompiles(w.kernels, tr); err != nil {
		return err
	}
	const probeN, bigN = 40, 8
	_, _, probeFailed, err := probeTrials(w.kernels, probeN, seed, tr)
	if err != nil {
		return err
	}
	bigWords, bigTrialS, bigFailed, err := probeTrials(bigfootKernels, bigN, seed, nil)
	if err != nil {
		return err
	}
	rep.attempted += probeN*len(w.kernels) + bigN*len(bigfootKernels)
	if probeFailed+bigFailed > 0 {
		rep.failed += probeFailed + bigFailed
		rep.problems = append(rep.problems, fmt.Sprintf("trial probe: %d SDC or crash trial(s)", probeFailed+bigFailed))
	}
	rep.layer = perLayer(tr, tph, exact)
	rep.layer.add("pipeline.bigfoot_trial_s", median(bigTrialS), "s")
	rep.layer.add("isa.bigfoot_mem_words", float64(bigWords), "count")
	rep.layer.add("obs.trace_overhead", tph.wallS/ph.wallS-1, "frac")
	if w.nominalJobs > 0 {
		if err := measureServiceExtras(rep, in, ph, tr, work); err != nil {
			return err
		}
		rep.notes = append(rep.notes, "artifact.hit_ratio = "+tph.hitBase)
	}
	rep.layer.add("bench.exact_mismatches", float64(len(rep.mismatches)), "count")
	tend := endToEnd(tph, tfacts)
	for _, m := range rep.e2e {
		rep.notes = append(rep.notes, fmt.Sprintf("traced %s = %.6g %s (untraced %.6g, diff %+.6g)",
			m.Name, tend.get(m.Name), m.Unit, m.Value, tend.get(m.Name)-m.Value))
	}
	return tr.writeJSONL(filepath.Join(work, "spans-"+w.name+".jsonl"))
}

func runPhase(w workloadSpec, in *inputs, tr *tracer, work string) (*phase, error) {
	var ph *phase
	var err error
	if w.nominalJobs > 0 {
		ph, err = runJobs(in, in.Jobs, w.reps, tr, filepath.Join(work, stateFSDir), true)
	} else {
		ph, err = runCampaigns(in, tr)
	}
	if err != nil {
		return nil, err
	}
	if len(ph.jobS) == 0 || ph.trials == 0 {
		return nil, errors.New("the timed phase completed no work")
	}
	runtime.GC()
	debug.FreeOSMemory()
	return ph, nil
}

func endToEnd(ph *phase, facts modelFacts) metrics {
	var ms metrics
	tailS, _ := tail(ph.jobS)
	ms.add("setup_s", median(ph.setupS), "s")
	ms.add("trials_per_s", float64(ph.trials)/ph.wallS, "1/s")
	ms.add("turnpike_overhead", facts.Overhead, "ratio")
	ms.add("jobs_per_s", float64(len(ph.jobS))/ph.wallS, "1/s")
	ms.add("job_p50_s", median(ph.jobS), "s")
	ms.add("job_tail_s", tailS, "s")
	ms.add("heap_peak_mb", ph.peakMB, "MB")
	return ms
}

// perLayer assembles the per-layer metrics of a traced phase. Metrics a
// workload does not exercise (the service layer on campaign workloads)
// read 0.
func perLayer(tr *tracer, ph *phase, exact exactCounts) metrics {
	var ms metrics
	ms.add("fault.prepare_s", median(tr.seconds("fault", "prepare")), "s")
	ms.add("fault.run_s", median(tr.seconds("fault", "run")), "s")
	ms.add("fault.trials", float64(ph.trials), "count")
	ms.add("fault.failed_trials", float64(ph.failedTrials), "count")
	ms.add("core.compile_s", median(tr.seconds("core", "compile")), "s")
	ms.add("pipeline.reset_s", median(tr.seconds("pipeline", "reset")), "s")
	ms.add("pipeline.simulate_s", median(tr.seconds("pipeline", "simulate")), "s")
	ms.add("pipeline.drain_s", median(tr.seconds("pipeline", "drain")), "s")
	ms.add("isa.compare_s", median(tr.seconds("isa", "compare")), "s")
	ms.add("isa.mem_words", float64(exact.MemWords), "count")
	ms.add("pipeline.sim_minst", float64(exact.SimInsts)/1e6, "Minst")
	ms.add("pipeline.sim_mcycles", float64(exact.SimCycles)/1e6, "Mcycles")
	for _, m := range serviceLayerMetrics {
		ms.add(m.Name, ph.service[m.Name], m.Unit)
	}
	return ms
}

// measureServiceExtras adds the traced jobs-service numbers that need
// runs of their own: the disk-backed repeat and the admission timings.
func measureServiceExtras(rep *report, in *inputs, tmpfs *phase, tr *tracer, work string) error {
	disk, err := runJobs(in, in.Jobs[:diskJobs], 1, nil, filepath.Join(work, diskDir), false)
	if err != nil {
		return err
	}
	rep.attempted += disk.attempted
	rep.failed += disk.failed
	rep.problems = append(rep.problems, disk.problems...)
	k := min(len(disk.jobS), len(tmpfs.jobS))
	rep.layer.set("service.state_io_wait_s", median(disk.jobS[:k])-median(tmpfs.jobS[:k]))
	rep.notes = append(rep.notes, fmt.Sprintf("service.state_io_wait_s: median job latency of the first %d jobs, state on disk %.4g s against tmpfs %.4g s",
		k, median(disk.jobS[:k]), median(tmpfs.jobS[:k])))
	if err := timeAdmission(in, tr); err != nil {
		return err
	}
	rep.layer.set("artifact.compile_all_s", median(tr.seconds("artifact", "compile_all")))
	rep.layer.set("ir.admit_s", median(tr.seconds("ir", "admit")))
	return nil
}

// print writes the human-readable report.
func (r *report) print(out io.Writer, workload string) {
	fmt.Fprintf(out, "perfbench %s\n", workload)
	for _, m := range r.e2e {
		fmt.Fprintf(out, "  %-26s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	// failed_frac is not in the JSON line: its expected value is 0.
	fmt.Fprintf(out, "  %-26s %14.6g frac (%d failed / %d attempted operations)\n",
		"failed_frac", float64(r.failed)/math.Max(1, float64(r.attempted)), r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Fprintf(out, "  # %s\n", n)
	}
	if len(r.layer) > 0 {
		fmt.Fprintln(out, "  per layer:")
		for _, m := range r.layer {
			fmt.Fprintf(out, "  %-26s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	for _, m := range r.mismatches {
		fmt.Fprintf(out, "  EXACTNESS MISMATCH: %s\n", m)
	}
	for _, p := range r.problems {
		fmt.Fprintf(out, "  CORRECTNESS: %s\n", p)
	}
}

// checkExactRecord compares the run's exact counts with the ones an
// earlier run of the same binary recorded for this workload and seed, and
// records them when none exist yet. It describes a mismatch, if any.
func checkExactRecord(work, workload string, seed int64, got exactCounts) (mismatch string, err error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(bin)
	dir := filepath.Join(work, "exact")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-%s.json", workload, seed, hex.EncodeToString(sum[:6])))
	if b, err := os.ReadFile(path); err == nil {
		var want exactCounts
		if err := json.Unmarshal(b, &want); err != nil {
			return "", fmt.Errorf("exact-count record %s: %w", path, err)
		}
		if want != got {
			return fmt.Sprintf("exact counts %+v differ from an earlier run's %+v", got, want), nil
		}
		return "", nil
	}
	b, err := json.Marshal(got)
	if err != nil {
		return "", err
	}
	return "", os.WriteFile(path, b, 0o644)
}
