package main

import (
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"heterog/internal/service"
)

// env is the environment block every result carries.
type env struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the git commit when the tree is a git checkout ("unknown"
	// otherwise); SourceDigest hashes the Go sources either way.
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
	Seed         int64  `json:"seed"`
	Date         string `json:"date"`
}

func environment(o options) env {
	return env{
		Cores:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit(),
		SourceDigest: sourceDigest(),
		Seed:         o.Seed,
		Date:         time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit resolves HEAD from the .git directory without running git.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if raw, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(raw))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go file and go.mod under the working directory,
// skipping hidden directories (.git, .bench_build).
func sourceDigest() string {
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			raw, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(raw))
				h.Write(raw)
			}
		}
		return nil
	})
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func secs(a, b time.Time) float64 { return b.Sub(a).Seconds() }

// latencies are the done timed jobs' due-to-finished times.
func (ob *observed) latencies() []float64 {
	var out []float64
	for _, s := range ob.subs {
		if s.Final != nil && s.Final.State == service.JobDone && s.Final.FinishedAt != nil {
			out = append(out, secs(s.Due, *s.Final.FinishedAt))
		}
	}
	return out
}

// done is the done timed submissions.
func (ob *observed) done() []submission {
	var out []submission
	for _, s := range ob.subs {
		if s.Final != nil && s.Final.State == service.JobDone && ob.reports[s.ID] != nil {
			out = append(out, s)
		}
	}
	return out
}

// Pipeline pass groups the per-layer metrics report.
var lowerPasses = map[string]bool{
	"layout": true, "edge-lowering": true, "aggregation-lowering": true, "memory-planning": true, "materialize": true,
}

func passTotals(rep *service.PlanReport) (lower, verify, ordering time.Duration) {
	if rep.Pipeline == nil {
		return
	}
	for _, p := range rep.Pipeline.Passes {
		switch {
		case lowerPasses[p.Name]:
			lower += p.Total
		case p.Name == "verify":
			verify += p.Total
		case p.Name == "ordering":
			ordering += p.Total
		}
	}
	return
}

// jobSpans reconstructs each done timed job's span tree from the public
// timestamps: the generator's lag, the submit up to admission, the queue
// wait (split at the lease grant in fleet mode) and the plan, whose
// children are the pipeline passes laid end to end. The first four tile the
// job's wall time when the timestamps are in order, which the run checks;
// the pass totals are summed over the planner's concurrent evaluations, so
// they may overrun the plan span (see searchSelf).
func (ob *observed) jobSpans() {
	for _, s := range ob.done() {
		f, rep := s.Final, ob.reports[s.ID]
		stamps := []time.Time{s.Due, s.Sent, f.SubmittedAt}
		queued := f.SubmittedAt
		if g, ok := ob.granted[s.ID]; ok {
			stamps = append(stamps, g)
			queued = g
		}
		stamps = append(stamps, *f.StartedAt, *f.FinishedAt)
		for i := 1; i < len(stamps); i++ {
			if stamps[i].Before(stamps[i-1]) {
				ob.fail("job %s: timestamps out of order (%v), so its layers cannot tile its wall time", s.ID, stamps)
				break
			}
		}
		root := ob.rec.add("job", s.ID, -1, s.Due, *f.FinishedAt)
		ob.rec.add("loadgen.lag", s.ID, root, s.Due, s.Sent)
		ob.rec.add("service.submit", s.ID, root, s.Sent, f.SubmittedAt)
		if queued != f.SubmittedAt {
			ob.rec.add("fleet.lease_wait", s.ID, root, f.SubmittedAt, queued)
		}
		ob.rec.add("service.queue_wait", s.ID, root, queued, *f.StartedAt)
		plan := ob.rec.add("service.plan", s.ID, root, *f.StartedAt, *f.FinishedAt)
		lower, verify, ordering := passTotals(rep)
		t := *f.StartedAt
		for _, p := range []struct {
			name string
			d    time.Duration
		}{{"plan.lower", lower}, {"plan.verify", verify}, {"plan.ordering", ordering}} {
			ob.rec.add(p.name, s.ID, plan, t, t.Add(p.d))
			t = t.Add(p.d)
		}
	}
}

// searchSelf is, per done timed job, the plan's wall time minus its pipeline
// pass totals: the agent's own share (policy, decode, bounds, simulation).
// It is not clipped at 0. The pass totals add up concurrent evaluations, so
// a job whose evaluations overlapped reads below its true self time, and
// negative when the totals exceed the wall time; overlapped counts those.
func (ob *observed) searchSelf() (self []float64, overlapped int) {
	for _, s := range ob.done() {
		lower, verify, ordering := passTotals(ob.reports[s.ID])
		d := secs(*s.Final.StartedAt, *s.Final.FinishedAt) - (lower + verify + ordering).Seconds()
		if d < 0 {
			overlapped++
		}
		self = append(self, d)
	}
	return self, overlapped
}

// layerSelf sums self time per span name over every job tree.
func layerSelf(spans []span) map[string]float64 {
	self := selfTimes(spans)
	inJob := make([]bool, len(spans))
	out := map[string]float64{}
	for i, s := range spans {
		inJob[i] = s.Name == "job" || (s.Parent >= 0 && inJob[s.Parent])
		if inJob[i] {
			out[s.Name] += self[i].Seconds()
		}
	}
	return out
}

// spanSelf returns the self times of every span with the given name.
func spanSelf(spans []span, name string) []float64 {
	self := selfTimes(spans)
	var out []float64
	for i, s := range spans {
		if s.Name == name {
			out = append(out, self[i].Seconds())
		}
	}
	return out
}

func (ob *observed) result() *result {
	res := &result{Attempted: len(ob.subs), Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	lat := ob.latencies()
	failed := 0
	attained := 0
	for _, s := range ob.subs {
		switch {
		case s.Final != nil && s.Final.State == service.JobDone:
			if secs(s.Due, *s.Final.FinishedAt) <= ob.w.SLO.Seconds() {
				attained++
			}
		default:
			failed++
		}
	}
	res.Failed = failed
	tl, ok := tailOf(lat)
	if !ok {
		ob.fail("only %d jobs finished done; a tail needs more than %d", len(lat), tailBeyond)
	}
	if !ob.opts.Trace {
		done := ob.done()
		var speedups []float64
		for _, s := range done {
			if dp, ok := ob.dp[s.ID]; ok {
				speedups = append(speedups, dp/ob.reports[s.ID].PerIterationSec)
			}
		}
		put("plan_latency_p50_s", "s", hdQuantile(lat, 0.5))
		put("plan_latency_tail_s", "s", hdQuantile(lat, tl.Percentile/100))
		put("slo_attainment", "ratio", share(float64(attained), float64(len(ob.subs))))
		put("cpu_s_per_job", "s", share(ob.cpuSec, float64(ob.completed)))
		put("plan_speedup_vs_dp", "ratio", geomean(speedups))
		put("peak_rss_mb", "MB", ob.hwmMB)
		put("setup_s", "s", median(ob.setupSec))
	} else {
		ob.layerMetrics(put, failed)
	}
	res.Correct = len(ob.failures) == 0
	return res
}
