package main

import (
	"sort"
	"time"

	"heterog/internal/service"
)

// layerMetrics puts every per-layer metric of a traced run.
func (ob *observed) layerMetrics(put func(name, unit string, v float64), failed int) {
	ob.jobSpans()
	spans := ob.rec.snapshot()
	done := ob.done()

	var queue, plan, rtt, lags, lower, verify, ordering, leaseWait []float64
	for _, s := range ob.subs {
		lags = append(lags, secs(s.Due, s.Sent))
	}
	var pr struct{ tried, pre, post, aborted, halved, delta, sharded, lowerings, reused int64 }
	for _, s := range done {
		f, rep := s.Final, ob.reports[s.ID]
		queue = append(queue, secs(f.SubmittedAt, *f.StartedAt))
		plan = append(plan, secs(*f.StartedAt, *f.FinishedAt))
		rtt = append(rtt, secs(s.Sent, s.Recv))
		l, v, o := passTotals(rep)
		lower, verify, ordering = append(lower, l.Seconds()), append(verify, v.Seconds()), append(ordering, o.Seconds())
		if g, ok := ob.granted[s.ID]; ok {
			leaseWait = append(leaseWait, secs(f.SubmittedAt, g))
		}
		if p := rep.Pipeline; p != nil {
			pr.tried += p.Pruning.BoundsTried
			pr.pre += p.Pruning.PrunedPreLower
			pr.post += p.Pruning.PrunedPostLower
			pr.aborted += p.Pruning.SimsAborted
			pr.halved += p.Pruning.CandidatesHalved
			pr.delta += p.Pruning.DeltaCompiles
			pr.sharded += p.Pruning.SimsSharded
			pr.lowerings += p.Lowerings
			pr.reused += p.Reused
		}
	}
	rejected := 0
	for _, s := range ob.subs {
		if s.Rejected {
			rejected++
		}
	}
	put("error_rate", "ratio", share(float64(failed), float64(len(ob.subs))))
	put("service.queue_wait_p50_s", "s", median(queue))
	put("service.plan_p50_s", "s", median(plan))
	put("service.submit_rtt_p50_s", "s", median(rtt))
	put("service.rejected", "count", float64(rejected))
	put("models.build_s", "s", median(spanSelf(spans, "models.build")))
	put("profile.evaluator_init_s", "s", median(spanSelf(spans, "profile.evaluator_init")))
	searchSelf, overlapped := ob.searchSelf()
	put("agent.search_self_s", "s", median(searchSelf))
	put("plan.pass_overlap_share", "ratio", share(float64(overlapped), float64(len(done))))
	put("agent.candidates_halved", "count", float64(pr.halved))
	put("core.bounds_tried", "count", float64(pr.tried))
	put("core.pruned_pre_lower", "count", float64(pr.pre))
	put("core.pruned_post_lower", "count", float64(pr.post))
	put("core.sims_aborted", "count", float64(pr.aborted))
	put("core.prune_ratio", "ratio", share(float64(pr.pre+pr.post+pr.aborted), float64(pr.tried)))
	put("core.evaluate_cold_s", "s", median(spanSelf(spans, "core.evaluate_cold")))
	put("core.delta_compiles", "count", float64(pr.delta))
	put("core.sims_sharded", "count", float64(pr.sharded))
	put("plan.lower_s", "s", median(lower))
	put("plan.verify_s", "s", median(verify))
	put("plan.ordering_s", "s", median(ordering))
	put("plan.lowerings", "count", float64(pr.lowerings))
	put("plan.reused", "count", float64(pr.reused))
	evalRate, lowRate := ob.hitRates()
	put("evalcache.eval_hit_rate", "ratio", evalRate)
	put("evalcache.lowered_hit_rate", "ratio", lowRate)

	put("router.proxy_overhead_p50_s", "s", median(ob.proxyDiffs))
	affine := 0
	if ob.st.routed {
		for _, s := range done {
			if w := ob.reports[s.ID].Warm; w != nil && w.SharedJobs >= 2 {
				affine++
			}
		}
	}
	put("router.affinity_share", "ratio", share(float64(affine), float64(len(done))))
	var warmStarts, fetchErrs uint64
	for i := range ob.after {
		warmStarts += ob.after[i].Peer.PeerWarmStarts - ob.before[i].Peer.PeerWarmStarts
		fetchErrs += ob.after[i].Peer.FetchErrors - ob.before[i].Peer.FetchErrors
	}
	put("peer.warm_starts", "count", float64(warmStarts))
	put("peer.fetch_errors", "count", float64(fetchErrs))

	put("store.append_p50_s", "s", quantile(ob.storeWrites, 0.5))
	put("store.append_p95_s", "s", quantile(ob.storeWrites, 0.95))
	put("store.calls", "count", float64(len(ob.storeWrites)))
	put("store.open_s", "s", median(ob.storeOpen))

	ob.driftMetrics(put)

	put("fleet.estimate_s", "s", median(ob.estimates))
	put("fleet.estimate_calls", "count", float64(len(ob.estimates)))
	put("fleet.lease_wait_p50_s", "s", median(leaseWait))
	var leased float64
	if ob.fleet != nil {
		leased = mean(ob.fleet.shares)
	}
	put("fleet.leased_share", "ratio", leased)

	put("service.heap_mb_per_job", "MB", share(ob.heapMB, float64(ob.retained)))
	put("loadgen.lag_p95_s", "s", quantile(lags, 0.95))
	put("trace.overhead_s", "s", median(ob.latencies())-median(ob.refLatency))
}

// driftMetrics puts drift-durable's telemetry and replan metrics (zero on
// the other workloads, which push no telemetry).
func (ob *observed) driftMetrics(put func(name, unit string, v float64)) {
	var push, replan, lag []float64
	var adopted, closed int
	if d := ob.drift; d != nil {
		push = d.pushRTT
		for _, t := range d.trips {
			if at, ok := d.resolution(t); ok {
				replan = append(replan, secs(t.Due, at))
			}
		}
		for _, r := range d.received {
			lag = append(lag, secs(r.Ev.Time, r.At))
			if resolving(r.Ev.Type) {
				closed++
				if r.Ev.Type == service.EventReplanAdopted {
					adopted++
				}
			}
		}
		put("telemetry.episodes", "count", float64(len(d.trips)))
	} else {
		put("telemetry.episodes", "count", 0)
	}
	put("telemetry.push_p50_s", "s", median(push))
	put("telemetry.adopted_share", "ratio", share(float64(adopted), float64(closed)))
	put("telemetry.event_lag_p50_s", "s", median(lag))
	put("replan_latency_p50_s", "s", median(replan))
	tl, ok := tailOf(replan)
	if !ok {
		tl.Value = quantile(replan, 1)
	}
	put("replan_latency_tail_s", "s", tl.Value)
}

// hitRates are the evaluation- and lowered-cache hit rates of the timed
// jobs. A job's warm stats are cumulative over its warm set, so each job is
// charged the difference from the previous job on the same replica and set.
func (ob *observed) hitRates() (eval, lowered float64) {
	type obs struct {
		group   string
		started time.Time
		warm    *service.WarmStats
		timed   bool
	}
	var all []obs
	add := func(id, spec string, st *service.JobStatus, rep *service.PlanReport, timed bool) {
		if rep == nil || rep.Warm == nil || st.StartedAt == nil {
			return
		}
		group := ob.st.direct[ob.replicaOf(id)].BaseURL + " " + spec + " " + rep.Cluster
		all = append(all, obs{group, *st.StartedAt, rep.Warm, timed})
	}
	for i, id := range ob.st.setupJobs {
		add(id, specKey(ob.st.setupSpecs[i]), ob.setupStat[id], ob.setupRep[id], false)
	}
	for i, s := range ob.subs {
		if s.Final != nil {
			add(s.ID, specKey(ob.arrivals[i].Spec), s.Final, ob.reports[s.ID], true)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].started.Before(all[j].started) })
	last := map[string]*service.WarmStats{}
	var eh, em, lh, lm uint64
	for _, o := range all {
		cur, prev := o.warm, last[o.group]
		last[o.group] = cur
		if !o.timed {
			continue
		}
		if prev != nil && cur.SharedJobs == prev.SharedJobs+1 {
			eh += cur.Eval.Hits - prev.Eval.Hits
			em += cur.Eval.Misses - prev.Eval.Misses
			lh += cur.Lowered.Hits - prev.Lowered.Hits
			lm += cur.Lowered.Misses - prev.Lowered.Misses
			continue
		}
		eh, em, lh, lm = eh+cur.Eval.Hits, em+cur.Eval.Misses, lh+cur.Lowered.Hits, lm+cur.Lowered.Misses
	}
	return share(float64(eh), float64(eh+em)), share(float64(lh), float64(lh+lm))
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return share(s, float64(len(xs)))
}
