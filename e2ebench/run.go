package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"heterog/internal/service"
	"heterog/internal/store"
)

type options struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
}

// A run builds and warms its stack at least setupMin times, and keeps going
// until the set-ups add up to setupSpan or it has done setupMax; setup_s is
// the median. Short set-ups are repeated more, so that the median does not
// rest on one brief stretch of a noisy machine. The last stack built serves
// the timed phase.
const (
	setupMin  = 3
	setupMax  = 12
	setupSpan = 3 * time.Second
)

// drainLimit bounds how long the run waits, after the arrival window, for
// accepted jobs and drift episodes to finish.
const drainLimit = 60 * time.Second

// outDir holds everything a run leaves behind: results, traces and the
// file stores of drift-durable (removed at the end).
var outDir = filepath.Join(".bench_build", "e2ebench")

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// observed is everything a run measured, before it becomes metrics.
type observed struct {
	w    *workload
	opts options
	st   *stack
	rec  *recorder

	setupSec  []float64
	storeOpen []float64

	start, end time.Time
	arrivals   []arrival
	subs       []submission
	cpuSec     float64
	hwmMB      float64
	heapMB     float64
	retained   int // done jobs the replicas hold when the heap is measured
	completed  int // jobs the replicas finished done in the timed phase, replans included

	reports   map[string]*service.PlanReport
	setupRep  map[string]*service.PlanReport
	setupStat map[string]*service.JobStatus
	granted   map[string]time.Time // fleet-lease: lease-granted event time
	before    []*service.ServerStats
	after     []*service.ServerStats

	storeWrites []float64
	estimates   []float64
	drift       *driftRun
	fleet       *fleetSampler
	proxyDiffs  []float64
	// dp is the best DP baseline per done timed job, from the re-score.
	dp map[string]float64

	// refLatency is, in a traced run, the latencies of the untraced pass
	// over the same schedule.
	refLatency []float64

	failures []string
	checkSec float64
}

func (ob *observed) fail(format string, args ...any) {
	ob.failures = append(ob.failures, fmt.Sprintf(format, args...))
}

func newObserved(w *workload, o options) *observed {
	ob := &observed{w: w, opts: o, reports: map[string]*service.PlanReport{}, setupRep: map[string]*service.PlanReport{},
		setupStat: map[string]*service.JobStatus{}, granted: map[string]time.Time{}, dp: map[string]float64{}}
	if o.Trace {
		ob.rec = &recorder{}
	}
	return ob
}

func run(o options) (*result, error) {
	w, err := lookup(o.Workload)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	procs := runtime.GOMAXPROCS(0)
	runDir, err := os.MkdirTemp(mkdir(outDir, "tmp"), w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	ctx := context.Background()

	// A traced run first replays the same schedule untraced on a stack of
	// its own, so trace.overhead_s compares two passes of one process.
	var ref *observed
	if o.Trace {
		untraced := o
		untraced.Trace = false
		ref = newObserved(w, untraced)
		if err := ref.setUp(ctx, filepath.Join(runDir, "ref"), procs, 1, 1); err != nil {
			return nil, err
		}
		err := ref.timedPhase(ctx, procs)
		if cerr := ref.st.close(); err == nil && cerr != nil {
			ref.fail("drain: %v", cerr)
		}
		if err != nil {
			return nil, fmt.Errorf("untraced pass: %w", err)
		}
		ref.st = nil
		runtime.GC()
	}

	ob := newObserved(w, o)
	if ref != nil {
		ob.refLatency = ref.latencies()
		for _, f := range ref.failures {
			ob.fail("untraced pass: %s", f)
		}
		if n := len(ref.subs) - len(ob.refLatency); n > 0 {
			ob.fail("untraced pass: %d of %d jobs did not finish done", n, len(ref.subs))
		}
	}
	if err := ob.setUp(ctx, runDir, procs, setupMin, setupMax); err != nil {
		return nil, err
	}
	st := ob.st
	defer st.close()

	if err := ob.timedPhase(ctx, procs); err != nil {
		return nil, err
	}
	if err := ob.gather(ctx); err != nil {
		return nil, err
	}
	if err := st.close(); err != nil {
		ob.fail("drain: %v", err)
	}
	ob.checkStores()
	t0 := time.Now()
	ob.rescoreAll()
	ob.checkSec = time.Since(t0).Seconds()
	res := ob.result()
	if err := ob.save(res); err != nil {
		return nil, err
	}
	for _, f := range ob.failures {
		fmt.Fprintln(os.Stderr, "check failed:", f)
	}
	for _, s := range ob.subs {
		switch {
		case s.Rejected:
			fmt.Fprintf(os.Stderr, "job rejected: %s\n", s.Spec)
		case s.Err != nil:
			fmt.Fprintf(os.Stderr, "submit failed: %s: %v\n", s.Spec, s.Err)
		case s.Final != nil && s.Final.State != service.JobDone:
			fmt.Fprintf(os.Stderr, "job %s ended %s: %s\n", s.ID, s.Final.State, s.Final.Error)
		}
	}
	return res, nil
}

// setUp builds and warms the workload's stack at least minimum times, and
// further until the set-ups add up to setupSpan or number maximum; the last
// stack built stays up in ob.st.
func (ob *observed) setUp(ctx context.Context, dir string, procs, minimum, maximum int) error {
	var spent time.Duration
	for k := 0; k < minimum || (k < maximum && spent < setupSpan); k++ {
		if ob.st != nil {
			if err := ob.st.close(); err != nil {
				return fmt.Errorf("close set-up %d: %w", k, err)
			}
			ob.st = nil
			runtime.GC()
		}
		t0 := time.Now()
		st, err := ob.w.setup(ctx, ob.w, filepath.Join(dir, fmt.Sprint(k)), procs)
		d := time.Since(t0)
		spent += d
		ob.setupSec = append(ob.setupSec, d.Seconds())
		if st != nil {
			ob.st = st
			ob.storeOpen = append(ob.storeOpen, st.storeOpen...)
		}
		if err != nil {
			if st != nil {
				_ = st.close()
			}
			return fmt.Errorf("set-up: %w", err)
		}
	}
	return nil
}

// timedPhase runs the arrival window plus the drain of every accepted job,
// measuring process CPU, peak RSS and the retained heap around it.
func (ob *observed) timedPhase(ctx context.Context, procs int) error {
	st, w := ob.st, ob.w
	window := time.Duration(ob.opts.Seconds) * time.Second
	ob.arrivals = schedule(w, ob.opts.Seed, window)
	ob.before = ob.stats(ctx)
	for _, r := range st.replicas {
		r.store.writes.reset(ob.rec)
	}
	st.estimate.calls.reset(ob.rec)
	runtime.GC()
	cpu0 := cpuSeconds()
	ob.start = time.Now().Add(20 * time.Millisecond)
	var err error
	if len(st.bases) > 0 {
		if ob.drift, err = startDrift(ctx, st, ob.opts.Seed, window, ob.start, ob.rec); err != nil {
			return err
		}
	}
	if w.Fleet != nil {
		ob.fleet = startFleetSampler(ctx, st.direct[0])
	}
	ob.subs = drive(ctx, st.front, ob.arrivals, ob.start, procs, ob.rec)
	deadline := time.Now().Add(drainLimit)
	if ob.drift != nil {
		if err := ob.drift.finish(deadline); err != nil {
			ob.fail("drift: %v", err)
		}
	}
	if err := collect(ctx, st.front, ob.subs, deadline); err != nil {
		ob.fail("lost job: %v", err)
	}
	ob.end = time.Now()
	ob.cpuSec = cpuSeconds() - cpu0
	if ob.fleet != nil {
		if err := ob.fleet.finish(); err != nil {
			ob.fail("fleet: %v", err)
		}
	}
	ob.hwmMB = vmHWM()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ob.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	ob.after = ob.stats(ctx)
	for i, s := range ob.after {
		ob.retained += s.Done
		ob.completed += s.Done - ob.before[i].Done
	}
	for _, r := range st.replicas {
		ob.storeWrites = append(ob.storeWrites, r.store.writes.values()...)
	}
	ob.estimates = st.estimate.calls.values()
	return nil
}

func (ob *observed) stats(ctx context.Context) []*service.ServerStats {
	var out []*service.ServerStats
	for _, c := range ob.st.direct {
		s, err := c.Stats(ctx)
		if err != nil {
			ob.fail("stats: %v", err)
			s = &service.ServerStats{}
		}
		out = append(out, s)
	}
	return out
}

// gather fetches what the checks and metrics need once the timed phase is
// over: reports of done jobs (timed and set-up), lease grants, event logs,
// and, traced, the router's proxy overhead.
func (ob *observed) gather(ctx context.Context) error {
	c := ob.st.front
	for _, id := range ob.st.setupJobs {
		st, err := c.Status(ctx, id)
		if err != nil {
			return err
		}
		rep, err := c.Report(ctx, id)
		if err != nil {
			return err
		}
		ob.setupStat[id], ob.setupRep[id] = st, rep
	}
	for _, s := range ob.subs {
		if s.Final == nil || s.Final.State != service.JobDone {
			continue
		}
		rep, err := c.Report(ctx, s.ID)
		if err != nil {
			return err
		}
		ob.reports[s.ID] = rep
		if ob.w.Fleet != nil {
			evs, err := c.Events(ctx, s.ID, 0, 0)
			if err != nil {
				return err
			}
			if err := validateEvents(s.ID, evs); err != nil {
				ob.fail("%v", err)
			}
			for _, ev := range evs {
				if ev.Type == service.EventLeaseGranted {
					ob.granted[s.ID] = ev.Time
					break
				}
			}
		}
	}
	for _, id := range ob.st.bases {
		evs, err := c.Events(ctx, id, 0, 0)
		if err != nil {
			return err
		}
		if err := validateEvents(id, evs); err != nil {
			ob.fail("%v", err)
		}
	}
	// Every job any replica accepted, auto-replans included, must have ended.
	for _, d := range ob.st.direct {
		jobs, err := d.Jobs(ctx)
		if err != nil {
			return err
		}
		for _, j := range jobs {
			if !j.State.Terminal() {
				ob.fail("job %s still %s after the drain", j.ID, j.State)
			}
		}
	}
	if ob.rec != nil && ob.st.routed {
		ob.proxyOverhead(ctx)
	}
	return nil
}

// proxyOverhead times status GETs through the router against the same GETs
// sent straight to the owning replica, alternating the two.
func (ob *observed) proxyOverhead(ctx context.Context) {
	n := 0
	for _, s := range ob.subs {
		if s.Final == nil || n >= 64 {
			continue
		}
		owner := ob.replicaOf(s.ID)
		t0 := time.Now()
		_, err1 := ob.st.front.Status(ctx, s.ID)
		t1 := time.Now()
		_, err2 := ob.st.direct[owner].Status(ctx, s.ID)
		t2 := time.Now()
		if err1 != nil || err2 != nil {
			ob.fail("status probe %s: %v / %v", s.ID, err1, err2)
			return
		}
		ob.rec.add("router.status", s.ID, -1, t0, t1)
		ob.rec.add("replica.status", s.ID, -1, t1, t2)
		ob.proxyDiffs = append(ob.proxyDiffs, t1.Sub(t0).Seconds()-t2.Sub(t1).Seconds())
		n++
	}
}

// replicaOf maps a job ID to the index of the replica that owns it, by the
// node prefix the replicas stamp on their IDs.
func (ob *observed) replicaOf(id string) int {
	for i, s := range ob.before {
		if s.Node != "" && strings.HasPrefix(id, s.Node+"-") {
			return i
		}
	}
	return 0
}

// checkStores reopens every file store after the drain, as a restarted
// replica would: each event log must validate and every accepted job must be
// there, terminal.
func (ob *observed) checkStores() {
	for _, dir := range ob.st.dirs {
		f, err := store.Open(dir)
		if err != nil {
			ob.fail("reopen store: %v", err)
			continue
		}
		snap, err := f.Load()
		_ = f.Close()
		if err != nil {
			ob.fail("load store: %v", err)
			continue
		}
		for id, evs := range snap.Events {
			if err := store.ValidateEventLog(id, evs); err != nil {
				ob.fail("%v", err)
			}
		}
		state := map[string]string{}
		for _, j := range snap.Jobs {
			state[j.ID] = j.State
		}
		for _, s := range ob.subs {
			if s.ID == "" {
				continue
			}
			if st, ok := state[s.ID]; !ok || !service.JobState(st).Terminal() {
				ob.fail("job %s is %q in the reopened store", s.ID, st)
			}
		}
	}
}

// rescoreAll re-scores every done job's strategy in-process (see rescore),
// once per distinct (spec, cluster, strategy).
func (ob *observed) rescoreAll() {
	type key struct{ spec, cluster, strat string }
	seen := map[key]float64{}
	for i, s := range ob.subs {
		rep := ob.reports[s.ID]
		if rep == nil {
			continue
		}
		sp := ob.arrivals[i].Spec
		k := key{specKey(sp), rep.Cluster, strategyDigest(rep.Strategy)}
		dp, ok := seen[k]
		if !ok {
			var err error
			dp, err = rescore(sp, rep, ob.w.Fleet, ob.rec, s.ID)
			if err != nil {
				ob.fail("re-score %s (%s): %v", s.ID, k.spec, err)
				continue
			}
			seen[k] = dp
		}
		ob.dp[s.ID] = dp
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// vmHWM reads the process's peak resident set size in MB (0 if unknown).
func vmHWM() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func mkdir(parts ...string) string {
	p := filepath.Join(parts...)
	_ = os.MkdirAll(p, 0o755)
	return p
}

// save writes the run's full record, environment and spans included, under
// outDir, and prints the environment and detail line before the result.
func (ob *observed) save(res *result) error {
	env := environment(ob.opts)
	rec := map[string]any{
		"environment": env,
		"options":     ob.opts,
		"result":      res,
		"failures":    ob.failures,
		"setup_s":     ob.setupSec,
	}
	tl, _ := tailOf(ob.latencies())
	rec["plan_latency_tail"] = tl
	type jobRow struct {
		Spec   string             `json:"spec"`
		Due    time.Time          `json:"due"`
		Sent   time.Time          `json:"sent"`
		Status *service.JobStatus `json:"status,omitempty"`
	}
	var jobs []jobRow
	for _, s := range ob.subs {
		jobs = append(jobs, jobRow{s.Spec, s.Due, s.Sent, s.Final})
	}
	rec["jobs"] = jobs
	name := ob.resultName()
	if ob.rec != nil {
		spans := ob.rec.snapshot()
		rec["spans"] = spans
		rec["layers"] = layerSelf(spans)
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(mkdir(outDir, "results"), name), raw, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{"environment": env, "setup_s": ob.setupSec, "plan_latency_tail": tl,
		"timed_s": secs(ob.start, ob.end), "rescore_s": ob.checkSec, "failures": ob.failures})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// resultName names the saved record of this run's workload, seed and mode.
func (ob *observed) resultName() string {
	t := 0
	if ob.opts.Trace {
		t = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d.json", ob.opts.Workload, ob.opts.Seed, t)
}
