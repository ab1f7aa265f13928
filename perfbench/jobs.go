package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	turnpike "repro"
	"repro/internal/artifact"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/obs/olog"
	"repro/internal/service"
	"repro/internal/tenant"
)

// The jobs-service state directory sits on a tmpfs mounted inside the
// checkout, in a private mount namespace of a child process: on ext4,
// replacing or unlinking a state file waits tens of milliseconds for a
// flush, so a disk-backed run measures the disk rather than the program.
// The traced run measures that disk cost separately
// (service.state_io_wait_s).
const (
	nsEnv      = "PERFBENCH_STATEFS" // set in the child that owns the mount
	stateFSDir = "statefs"           // mount point under .bench_build
	diskDir    = "diskstate"         // disk-backed state for the traced repeat
	diskJobs   = 12                  // jobs the disk-backed repeat runs
	apiKey     = "perfbench-key"
	clients    = 2
)

// reexecWithStateFS runs this command again as a child in a private
// mount namespace (a user namespace too, when the kernel allows one) with
// a tmpfs mounted on <work>/statefs, waits for it and returns its exit
// code.
func reexecWithStateFS(work string) int {
	if err := os.MkdirAll(filepath.Join(work, stateFSDir), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var lastErr error
	for _, userNS := range []bool{true, false} {
		cmd := exec.Command(exe, os.Args[1:]...)
		cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
		cmd.Env = append(os.Environ(), nsEnv+"=1")
		attr := &syscall.SysProcAttr{Cloneflags: syscall.CLONE_NEWNS, Pdeathsig: syscall.SIGKILL}
		if userNS {
			attr.Cloneflags |= syscall.CLONE_NEWUSER
			attr.UidMappings = []syscall.SysProcIDMap{{ContainerID: 0, HostID: os.Getuid(), Size: 1}}
			attr.GidMappings = []syscall.SysProcIDMap{{ContainerID: 0, HostID: os.Getgid(), Size: 1}}
		}
		cmd.SysProcAttr = attr
		if lastErr = cmd.Start(); lastErr != nil {
			continue
		}
		err := cmd.Wait()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return exit.ExitCode()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fmt.Fprintln(os.Stderr, "perfbench: jobs-service needs a private mount namespace for its tmpfs state directory:", lastErr)
	return 1
}

// mountStateFS mounts the tmpfs in the child started by reexecWithStateFS.
func mountStateFS(work string) error {
	if err := syscall.Mount("", "/", "", syscall.MS_REC|syscall.MS_PRIVATE, ""); err != nil {
		return fmt.Errorf("make mounts private: %w", err)
	}
	dir := filepath.Join(work, stateFSDir)
	if err := syscall.Mount("tmpfs", dir, "tmpfs", syscall.MS_NOSUID|syscall.MS_NODEV, "size=1g,mode=0755"); err != nil {
		return fmt.Errorf("mount tmpfs on %s: %w", dir, err)
	}
	return nil
}

// serviceLayerMetrics are the per-layer metrics of the service, artifact
// and ir layers; only jobs-service exercises them.
var serviceLayerMetrics = []metric{
	{Name: "service.submit_s", Unit: "s"}, {Name: "service.queue_wait_s", Unit: "s"}, {Name: "service.attempt_s", Unit: "s"},
	{Name: "service.state_write_bytes", Unit: "B/job"}, {Name: "service.state_bytes", Unit: "B"}, {Name: "service.state_io_wait_s", Unit: "s"},
	{Name: "service.program_new_s", Unit: "s"}, {Name: "service.program_cached_s", Unit: "s"},
	{Name: "artifact.compile_all_s", Unit: "s"}, {Name: "ir.admit_s", Unit: "s"}, {Name: "artifact.hit_ratio", Unit: "ratio"},
}

// stack is one in-process campaignd: the service with a FleetExecutor
// over a zero-worker fleet, a program store, and an obs.Server on
// loopback, plus the HTTP client the benchmark drives it with.
type stack struct {
	dir      string
	svc      *service.Service
	srv      *obs.Server
	programs *service.ProgramStore
	base     string
	client   *http.Client
	sent     atomic.Int64 // bytes the client wrote to its connections
	received atomic.Int64 // bytes the client read from them
}

func startStack(dir string, tr *tracer) (*stack, error) {
	reg := obs.NewRegistry()
	tenants, err := tenant.New([]tenant.Tenant{{ID: "bench", Key: apiKey, Quotas: tenant.Quotas{
		RatePerSec: -1, MaxStoredPrograms: 1 << 20, MaxConcurrentJobs: 2 * clients,
	}}})
	if err != nil {
		return nil, err
	}
	programs, err := service.NewProgramStore(service.ProgramStoreConfig{
		Dir:           filepath.Join(dir, "programs"),
		Cache:         artifact.NewCache(64<<20, reg),
		CompileBudget: 30 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	fleet := service.NewFleet(service.FleetConfig{Metrics: reg})
	x := &jobExec{programs: programs, reg: reg, tr: tr}
	x.fleet = &service.FleetExecutor{Fleet: fleet, Prepare: x.prepare}
	var executor service.Executor = x.fleet
	if tr != nil {
		executor = x
	}
	svc, err := service.New(service.Config{
		StateDir: dir, Executor: executor, Fleet: fleet, Tenants: tenants,
		Programs: programs, Metrics: reg,
	})
	if err != nil {
		return nil, err
	}
	srv := obs.NewServer(obs.ServerConfig{Snapshot: reg.Snapshot, RunsDir: dir, Instrument: reg})
	svc.Mount(srv)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc.Start()
	st := &stack{dir: dir, svc: svc, srv: srv, programs: programs, base: "http://" + addr.String()}
	dialer := &net.Dialer{}
	st.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return &countedConn{Conn: c, st: st}, nil
		},
	}}
	return st, nil
}

// stop drains the service, closes the listener and deletes the state.
func (st *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := st.svc.Shutdown(ctx)
	if herr := st.srv.Shutdown(ctx); err == nil {
		err = herr
	}
	st.client.CloseIdleConnections()
	if rerr := os.RemoveAll(st.dir); err == nil {
		err = rerr
	}
	return err
}

type countedConn struct {
	net.Conn
	st *stack
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.st.received.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.st.sent.Add(int64(n))
	return n, err
}

// call sends one request and decodes a 2xx JSON answer into out.
func (st *stack) call(method, path string, body []byte, out any) (status int, secs float64, err error) {
	req, err := http.NewRequest(method, st.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("X-API-Key", apiKey)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	secs = time.Since(start).Seconds()
	if err != nil {
		return resp.StatusCode, secs, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, secs, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	if out != nil {
		err = json.Unmarshal(b, out)
	}
	return resp.StatusCode, secs, err
}

func (st *stack) postProgram(src string) (resp service.ProgramResponse, status int, secs float64, err error) {
	body, err := json.Marshal(service.ProgramSubmitRequest{Source: src})
	if err != nil {
		return resp, 0, 0, err
	}
	status, secs, err = st.call(http.MethodPost, "/programs", body, &resp)
	return resp, status, secs, err
}

// jobExec is the benchmark's PrepareFunc, and in the traced run the
// Executor around the FleetExecutor, so the spans of a job's prepare and
// trial phases come from the benchmark's own code.
type jobExec struct {
	fleet    *service.FleetExecutor
	programs *service.ProgramStore
	reg      *obs.Registry
	tr       *tracer

	mu       sync.Mutex
	prepared time.Time // when the running job's prepare ended
}

func (x *jobExec) prepare(ctx context.Context, spec service.JobSpec, checkpoint string) (*fault.Prepared, error) {
	start := time.Now()
	cfg := jobConfig(spec)
	cfg.Checkpoint, cfg.Metrics = checkpoint, x.reg
	p, err := prepareJob(ctx, x.programs, spec, cfg)
	end := time.Now()
	x.tr.record("fault", "prepare", olog.FromContext(ctx).JobID, start, end)
	x.mu.Lock()
	x.prepared = end
	x.mu.Unlock()
	return p, err
}

// Execute runs the job on the FleetExecutor and records its trial phase
// (the service runs one job at a time).
func (x *jobExec) Execute(ctx context.Context, spec service.JobSpec, checkpoint string) (*fault.Result, error) {
	r, err := x.fleet.Execute(ctx, spec, checkpoint)
	end := time.Now()
	x.mu.Lock()
	start := x.prepared
	x.mu.Unlock()
	x.tr.record("fault", "run", olog.FromContext(ctx).JobID, start, end)
	return r, err
}

// jobConfig is the library configuration of a job spec, as campaignd
// builds it.
func jobConfig(spec service.JobSpec) turnpike.FaultCampaignConfig {
	return turnpike.FaultCampaignConfig{
		Trials: spec.Trials, Seed: spec.Seed, SBSize: spec.SBSize, WCDL: spec.WCDL,
		ScalePct: spec.ScalePct, Workers: spec.Workers, Lease: spec.Lease,
		FailureBudget: spec.FailureBudget, CheckpointEvery: spec.CheckpointEvery,
	}
}

func prepareJob(ctx context.Context, programs *service.ProgramStore, spec service.JobSpec, cfg turnpike.FaultCampaignConfig) (*fault.Prepared, error) {
	if !spec.IsProgram() {
		return turnpike.PrepareFaultCampaign(ctx, spec.Bench, turnpike.Turnpike, cfg)
	}
	entry, err := programs.Entry(ctx, spec.ProgramFingerprint())
	if err != nil {
		return nil, err
	}
	cfg.SBSize = entry.SBSize
	return turnpike.PrepareCompiledFaultCampaign(ctx, entry.Schemes["turnpike"], turnpike.Turnpike, cfg)
}

// jobRecord is what one client saw of one scheduled job.
type jobRecord struct {
	spec               service.JobSpec
	job                *service.Job
	submitS, programS  float64
	requests, rejected int
	err                error
}

// runJob drives one scheduled job through the front door: admit its
// program when it has one, submit it, and poll it to a terminal state.
func (st *stack) runJob(in *inputs, j job) (rec jobRecord) {
	rec.spec = service.JobSpec{Bench: j.Bench, Trials: j.Trials, Seed: j.Seed, Workers: workers, FailureBudget: -1}
	count := func(status int, err error) error {
		rec.requests++
		if status/100 != 2 {
			rec.rejected++
		}
		return err
	}
	if j.Kind != jobBuiltin {
		src, want := j.Source, http.StatusCreated
		if j.Kind == jobResubmit {
			src, want = in.Programs[j.Program], http.StatusOK
		}
		resp, status, secs, err := st.postProgram(src)
		if rec.err = count(status, err); rec.err != nil {
			return rec
		}
		if status != want {
			rec.err = fmt.Errorf("POST /programs of a %s answered %d, want %d", j.Kind, status, want)
			return rec
		}
		rec.programS, rec.spec.Bench = secs, resp.Workload
	}
	body, err := json.Marshal(rec.spec)
	if err != nil {
		rec.err = err
		return rec
	}
	var sub service.Job
	status, secs, err := st.call(http.MethodPost, "/jobs", body, &sub)
	if rec.err = count(status, err); rec.err != nil {
		return rec
	}
	rec.submitS = secs
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		var cur service.Job
		status, _, err := st.call(http.MethodGet, "/jobs/"+sub.ID, nil, &cur)
		if rec.err = count(status, err); rec.err != nil {
			return rec
		}
		switch cur.State {
		case service.StateDone, service.StateFailed, service.StateCanceled:
			rec.job = &cur
			return rec
		}
		time.Sleep(5 * time.Millisecond)
	}
	rec.err = fmt.Errorf("job %s did not finish within 2 minutes", sub.ID)
	return rec
}

// runJobs measures jobs-service in reps repetitions. Each one sets up a
// fresh service (store, listener and the initial programs) and then runs
// its share of jobs from two closed-loop clients. With sample set it also
// checks a sample of the service's results against the library.
func runJobs(in *inputs, jobs []job, reps int, tr *tracer, stateRoot string, sample bool) (*phase, error) {
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		return nil, err
	}
	ph := &phase{}
	var submit, wait, attempt, progNew, progCached []float64
	var stateWrites, stateBytes int64
	var hits, lookups uint64
	for r := 0; r < reps; r++ {
		share := jobs[r*len(jobs)/reps : (r+1)*len(jobs)/reps]
		runtime.GC()
		dir, err := os.MkdirTemp(stateRoot, "state-")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		st, err := startStack(dir, tr)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		for _, src := range in.Programs {
			if _, status, _, err := st.postProgram(src); err != nil || status != http.StatusCreated {
				st.stop()
				return nil, fmt.Errorf("admit initial program: status %d: %v", status, err)
			}
		}
		ph.setupS = append(ph.setupS, time.Since(start).Seconds())

		cs0 := st.programs.CacheStats()
		recs, wallS, written, err := st.runSchedule(in, share)
		if err != nil {
			st.stop()
			return nil, err
		}
		cs1 := st.programs.CacheStats()
		hits += cs1.Hits - cs0.Hits
		lookups += cs1.Hits + cs1.Misses - cs0.Hits - cs0.Misses
		ph.wallS += wallS
		stateWrites += written
		if stateBytes, err = dirBytes(st.dir); err != nil {
			st.stop()
			return nil, err
		}
		for i, rec := range recs {
			ph.attempted += 1 + rec.requests
			ph.failed += rec.rejected
			if rec.err != nil {
				ph.fail("job %d of repetition %d (%s): %v", i, r, share[i].Kind, rec.err)
				continue
			}
			j := rec.job
			if j.State != service.StateDone || j.Attempts != 1 || j.Result == nil {
				ph.fail("job %d of repetition %d (%s) ended %s after %d attempt(s): %s", i, r, share[i].Kind, j.State, j.Attempts, j.Error)
				continue
			}
			ph.addResult(j.Result, fmt.Sprintf("job %d of repetition %d (%s %s seed %d, %d trials)", i, r, share[i].Kind, rec.spec.Bench, rec.spec.Seed, rec.spec.Trials))
			ph.jobS = append(ph.jobS, j.FinishedAt.Sub(j.SubmittedAt).Seconds())
			submit = append(submit, rec.submitS)
			wait = append(wait, j.StartedAt.Sub(j.SubmittedAt).Seconds())
			attempt = append(attempt, j.FinishedAt.Sub(j.StartedAt).Seconds())
			switch share[i].Kind {
			case jobNewProgram:
				progNew = append(progNew, rec.programS)
			case jobResubmit:
				progCached = append(progCached, rec.programS)
			}
		}
		if sample && r == 0 {
			ph.attempted += checkAgainstLibrary(st, share, recs, ph)
		}
		if err := st.stop(); err != nil {
			return nil, err
		}
	}
	var err error
	if ph.peakMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	ph.service = map[string]float64{
		"service.submit_s":          median(submit),
		"service.queue_wait_s":      median(wait),
		"service.attempt_s":         median(attempt),
		"service.state_write_bytes": float64(stateWrites) / float64(len(jobs)),
		"service.state_bytes":       float64(stateBytes),
		"service.program_new_s":     median(progNew),
		"service.program_cached_s":  median(progCached),
		"artifact.hit_ratio":        float64(hits) / float64(lookups),
	}
	ph.hitBase = fmt.Sprintf("%d hits / %d artifact-cache lookups in the timed phase", hits, lookups)
	return ph, nil
}

// runSchedule runs jobs from two closed-loop clients and returns what
// each client saw, the wall time, and the bytes written meanwhile other
// than to the clients' connections: the service's state files.
func (st *stack) runSchedule(in *inputs, jobs []job) (recs []jobRecord, wallS float64, stateWrites int64, err error) {
	recs = make([]jobRecord, len(jobs))
	w0, err := writtenBytes()
	if err != nil {
		return nil, 0, 0, err
	}
	sent0, recv0 := st.sent.Load(), st.received.Load()
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
				recs[i] = st.runJob(in, jobs[i])
			}
		}()
	}
	wg.Wait()
	wallS = time.Since(start).Seconds()
	w1, err := writtenBytes()
	if err != nil {
		return nil, 0, 0, err
	}
	return recs, wallS, (w1 - w0) - (st.sent.Load() - sent0) - (st.received.Load() - recv0), nil
}

// checkAgainstLibrary reruns the first two built-in and the first two
// program jobs through the library (Prepare + Prepared.Run) and requires
// each result to encode byte-identically to the service's. It returns
// the number of comparisons made.
func checkAgainstLibrary(st *stack, jobs []job, recs []jobRecord, ph *phase) int {
	builtin, program, made := 0, 0, 0
	for i, rec := range recs {
		if rec.job == nil || rec.job.Result == nil {
			continue
		}
		if jobs[i].Kind == jobBuiltin {
			if builtin == 2 {
				continue
			}
			builtin++
		} else {
			if program == 2 {
				continue
			}
			program++
		}
		made++
		ctx := context.Background()
		p, err := prepareJob(ctx, st.programs, rec.spec, jobConfig(rec.spec))
		if err != nil {
			ph.fail("library prepare of job %d: %v", i, err)
			continue
		}
		lib, err := p.Run(ctx)
		if err != nil {
			ph.fail("library run of job %d: %v", i, err)
			continue
		}
		a, errA := json.Marshal(lib)
		b, errB := json.Marshal(rec.job.Result)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			ph.fail("job %d (%s): service result differs from the library result of the same spec", i, rec.spec.Bench)
		}
		if builtin == 2 && program == 2 {
			break
		}
	}
	return made
}

// timeAdmission records, for the new programs of the schedule, the
// admission path (ir.admit: ParseFuncLimits + Verify + RunIR) and the
// all-scheme compile (artifact.compile_all) as the service runs them.
func timeAdmission(in *inputs, tr *tracer) error {
	for i, j := range in.Jobs {
		if j.Kind != jobNewProgram {
			continue
		}
		id := fmt.Sprint(i)
		start := time.Now()
		f, err := ir.ParseFuncLimits(j.Source, ir.DefaultParseLimits())
		if err == nil {
			err = f.Verify()
		}
		if err == nil {
			_, err = ir.RunIR(f)
		}
		mid := time.Now()
		tr.record("ir", "admit", id, start, mid)
		if err != nil {
			return fmt.Errorf("admit program of job %d: %w", i, err)
		}
		if _, err := artifact.CompileAll(f, sbSize, len(j.Source)); err != nil {
			return fmt.Errorf("compile program of job %d: %w", i, err)
		}
		tr.record("artifact", "compile_all", id, mid, time.Now())
	}
	return nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}
