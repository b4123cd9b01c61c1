package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"strconv"
	"strings"

	"heterog/internal/baselines"
	"heterog/internal/cli"
	"heterog/internal/cluster"
	"heterog/internal/core"
	"heterog/internal/graph"
	"heterog/internal/models"
	"heterog/internal/service"
	"heterog/internal/store"
	"heterog/internal/strategy"
)

// specKey names a spec's workload identity (model, batch, cluster or cap,
// search seed).
func specKey(sp cli.Spec) string {
	return fmt.Sprintf("%s@%d/gpus=%d/seed=%d", sp.Model, sp.Batch, sp.GPUs, sp.Seed)
}

// rescoreTol is the relative difference tolerated between a job's reported
// per-iteration time and the in-process re-score of its strategy. The
// simulator is deterministic, so any real disagreement is far larger.
const rescoreTol = 1e-9

// rescore replays a done job's returned strategy in-process on a fresh
// evaluator: it must load against the model's graph, run without OOM and
// reproduce the reported per_iteration_sec under the ranked or the FIFO
// execution order (the plan ships whichever is faster). It returns the best
// even-replica data-parallel baseline (parameter server or AllReduce) on the
// same evaluator. fleet is the server's cluster in fleet mode, where the job
// planned on a lease named by its shape; nil means the spec names its own
// testbed.
func rescore(sp cli.Spec, rep *service.PlanReport, fleet *cluster.Cluster, rec *recorder, job string) (dp float64, err error) {
	var g *graph.Graph
	rec.time("models.build", job, -1, func() { g, err = models.Build(sp.Model, sp.Batch) })
	if err != nil {
		return 0, err
	}
	var view *cluster.View
	if fleet != nil {
		view, err = leaseView(fleet, rep.Cluster)
	} else {
		var c *cluster.Cluster
		if c, err = sp.BuildCluster(); err == nil {
			view = c.FullView()
		}
	}
	if err != nil {
		return 0, err
	}
	var ev *core.Evaluator
	rec.time("profile.evaluator_init", job, -1, func() { ev, err = core.NewEvaluator(g, view, sp.Seed) })
	if err != nil {
		return 0, err
	}
	st, err := strategy.Load(bytes.NewReader(rep.Strategy), len(g.Ops))
	if err != nil {
		return 0, err
	}
	var ranked *core.Evaluation
	rec.time("core.evaluate_cold", job, -1, func() { ranked, err = ev.Evaluate(st) })
	if err != nil {
		return 0, err
	}
	fifoEv := *ev
	fifoEv.UseFIFO = true
	fifo, err := fifoEv.Evaluate(st)
	if err != nil {
		return 0, err
	}
	if !reproduces(ranked, rep.PerIterationSec) && !reproduces(fifo, rep.PerIterationSec) {
		return 0, fmt.Errorf("re-scored %.9g s (ranked) / %.9g s (FIFO), report says %.9g s",
			ranked.Time(), fifo.Time(), rep.PerIterationSec)
	}
	dp = math.Inf(1)
	for _, kind := range []strategy.DecisionKind{strategy.DPEvenPS, strategy.DPEvenAR} {
		e, err := baselines.EvaluateDP(ev, kind)
		if err != nil {
			return 0, fmt.Errorf("DP baseline: %w", err)
		}
		dp = math.Min(dp, e.Time())
	}
	return dp, nil
}

// reproduces reports whether an evaluation fits in memory and matches the
// reported per-iteration time.
func reproduces(e *core.Evaluation, perIter float64) bool {
	return !e.Result.OOM() && closeTo(e.PerIter, perIter)
}

// leaseView rebuilds a lease of the given shape name on the fleet: for each
// "<n>x<model>@<nic>G" server of the shape, in order, the next unused fleet
// server with that GPU model and NIC speed, taking its first n devices. Leases
// of one shape plan identically, so any such view reproduces the job's plan.
func leaseView(fleet *cluster.Cluster, shape string) (*cluster.View, error) {
	inner, ok := strings.CutPrefix(shape, "view[")
	if !ok || !strings.HasSuffix(inner, "]") {
		return nil, fmt.Errorf("lease shape %q is not a view name", shape)
	}
	used := make([]bool, len(fleet.Servers))
	var ids []int
	for _, part := range strings.Split(strings.TrimSuffix(inner, "]"), "+") {
		countStr, rest, ok1 := strings.Cut(part, "x")
		modelName, nic, ok2 := strings.Cut(rest, "@")
		n, err := strconv.Atoi(countStr)
		if !ok1 || !ok2 || err != nil {
			return nil, fmt.Errorf("lease shape %q: bad server %q", shape, part)
		}
		found := false
		for si, srv := range fleet.Servers {
			if used[si] || len(srv.Devices) < n || fleet.Devices[srv.Devices[0]].Model.Name != modelName ||
				fmt.Sprintf("%.0fG", srv.NICBandwidth*8/1e9) != nic {
				continue
			}
			used[si], found = true, true
			ids = append(ids, srv.Devices[:n]...)
			break
		}
		if !found {
			return nil, fmt.Errorf("lease shape %q: no free fleet server for %q", shape, part)
		}
	}
	v, err := fleet.ViewOf(ids...)
	if err != nil {
		return nil, err
	}
	if v.Name != shape {
		return nil, fmt.Errorf("rebuilt lease %q, want %q", v.Name, shape)
	}
	return v, nil
}

// validateEvents checks a job's event log as the store would on recovery:
// sequence numbers 1..n with no gap.
func validateEvents(id string, evs []service.PlanEvent) error {
	recs := make([]store.EventRecord, len(evs))
	for i, ev := range evs {
		recs[i] = store.EventRecord{Seq: ev.Seq}
	}
	return store.ValidateEventLog(id, recs)
}

func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= rescoreTol*math.Max(math.Abs(a), math.Abs(b))
}

func strategyDigest(raw []byte) string {
	sum := sha256.Sum256(bytes.TrimSpace(raw))
	return fmt.Sprintf("%x", sum[:8])
}
