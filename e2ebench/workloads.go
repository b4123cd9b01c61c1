package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"heterog/internal/cli"
	"heterog/internal/cluster"
	"heterog/internal/service"
	"heterog/internal/telemetry"
)

// workload is one traffic mix against one serving topology.
type workload struct {
	Name string
	// Rate is the open-loop arrival rate (jobs per second) and SLO the fixed
	// latency limit a job must finish done within to count as attained: two
	// to three times the workload's measured plan_latency_tail_s, so that a
	// slowdown of the slowest jobs by half or more registers, while the few
	// outliers of a run leave the attainment steady from seed to seed.
	Rate float64
	SLO  time.Duration
	// Mix is the spec composition the arrivals are dealt from; FreshSeeds
	// gives every arrival its own search seed (and so its own warm set).
	// A mix whose specs plan in very different times makes the latency
	// percentiles jump between cost classes as the deal order shifts, so
	// drift-durable and fleet-lease keep to specs of one cost.
	Mix        []cli.Spec
	FreshSeeds bool
	// Fleet is the server-owned cluster in fleet mode (nil otherwise).
	Fleet *cluster.Cluster
	// setup builds one stack in dir (for file stores) and runs its warm-up.
	setup func(ctx context.Context, w *workload, dir string, procs int) (*stack, error)
}

// zoo is a zoo-model spec that leaves the search budget to the service
// default, as a client that sets no episodes gets it: six episodes, in
// rollout batches of four and two, so batched rollouts and successive
// halving run on every job.
func zoo(model string, batch, gpus int) cli.Spec {
	return cli.Spec{Model: model, Batch: batch, GPUs: gpus, Seed: 1}
}

func withSeed(sp cli.Spec, seed int64) cli.Spec {
	sp.Seed = seed
	return sp
}

// queueDepth sizes every replica's queue above a run's whole arrival count,
// so an open-loop burst queues instead of being rejected (rejections still
// count as failures).
const queueDepth = 64

// driftPeriod is the telemetry push period per drift-durable base job. A push
// every two seconds gives a few drift episodes a run. Each episode's replan
// slows the fresh jobs that plan beside it, and which jobs those are changes
// from seed to seed, so more episodes make a noisier latency.
const driftPeriod = 2 * time.Second

// driftPhases is one drift cycle the pushed telemetry walks through, repeated:
// settle, throttle the fastest cards, recover, congest the NICs, recover.
var driftPhases = []telemetry.Phase{
	{Regime: telemetry.Healthy, Ticks: 2},
	{Regime: telemetry.Throttle, Ticks: 8},
	{Regime: telemetry.Recovery, Ticks: 8},
	{Regime: telemetry.Congestion, Ticks: 8},
	{Regime: telemetry.Recovery, Ticks: 8},
}

// driftBases are the jobs drift-durable plans in set-up and then drives with
// telemetry. The coarse overlay quantum lets equal drift regimes share warm
// sets, as a deployment watching real telemetry would configure it.
func driftBases() []cli.Spec {
	th := &telemetry.Thresholds{Quantum: 0.5}
	a, b := zoo("vgg19", 64, 8), zoo("vgg19", 192, 8)
	a.Telemetry, b.Telemetry = th, th
	return []cli.Spec{a, b}
}

var workloads = []*workload{
	{
		Name: "cold-search",
		Rate: 1.25,
		SLO:  1500 * time.Millisecond,
		Mix: []cli.Spec{
			zoo("vgg19", 64, 8), zoo("vgg19", 128, 12),
			zoo("resnet50", 32, 4), zoo("transformer6", 32, 4), zoo("inception_v3", 32, 4),
		},
		FreshSeeds: true,
		setup: func(ctx context.Context, w *workload, _ string, procs int) (*stack, error) {
			st, err := build([]replicaSpec{{cfg: service.Config{QueueDepth: queueDepth}}}, false, false, procs)
			if err != nil {
				return nil, err
			}
			return st, st.warmUp(ctx, []cli.Spec{withSeed(w.Mix[0], 2), withSeed(w.Mix[1], 3)})
		},
	},
	{
		Name: "warm-routed",
		Rate: 2.4,
		SLO:  time.Second,
		Mix: []cli.Spec{
			zoo("mobilenet_v2", 32, 4), zoo("vgg19", 32, 4), zoo("resnet50", 32, 4),
			zoo("inception_v3", 32, 4), zoo("transformer6", 32, 4), zoo("mobilenet_v2", 64, 8),
		},
		setup: func(ctx context.Context, w *workload, _ string, procs int) (*stack, error) {
			// Two replicas whose warm capacity (4 sets each) is below the
			// six-spec working set, which fits the pair.
			workers := max(1, procs/2)
			st, err := build([]replicaSpec{
				{cfg: service.Config{Workers: workers, QueueDepth: queueDepth, NodeID: "a", MaxWarmSets: 4}},
				{cfg: service.Config{Workers: workers, QueueDepth: queueDepth, NodeID: "b", MaxWarmSets: 4}},
			}, true, true, procs)
			if err != nil {
				return nil, err
			}
			if err := st.warmUp(ctx, w.Mix); err != nil {
				return st, err
			}
			return st, st.awaitExports(ctx, len(w.Mix))
		},
	},
	{
		// Sixty cheap jobs a run put plan_latency_tail_s (around the 50th
		// of 60) inside the group of jobs a GC mark phase slowed, about a
		// quarter of them. With thirty jobs it falls on the border of that
		// group.
		Name:       "drift-durable",
		Rate:       3,
		SLO:        400 * time.Millisecond,
		Mix:        []cli.Spec{zoo("vgg19", 32, 4)},
		FreshSeeds: true,
		setup: func(ctx context.Context, w *workload, dir string, procs int) (*stack, error) {
			st, err := build([]replicaSpec{{cfg: service.Config{QueueDepth: queueDepth}, dir: filepath.Join(dir, "store")}}, false, false, procs)
			if err != nil {
				return nil, err
			}
			if err := st.warmUp(ctx, driftBases()); err != nil {
				return st, err
			}
			st.bases = st.setupJobs
			return st, nil
		},
	},
	{
		Name: "fleet-lease",
		Rate: 2.5,
		SLO:  500 * time.Millisecond,
		Mix: []cli.Spec{
			zoo("vgg19", 32, 8), zoo("vgg19", 64, 16), zoo("vgg19", 64, 32),
		},
		FreshSeeds: true,
		Fleet:      cluster.Testbed64(),
		setup: func(ctx context.Context, w *workload, _ string, procs int) (*stack, error) {
			st, err := build([]replicaSpec{{cfg: service.Config{QueueDepth: queueDepth, Fleet: w.Fleet}}}, false, false, procs)
			if err != nil {
				return nil, err
			}
			return st, st.warmUp(ctx, []cli.Spec{withSeed(w.Mix[0], 2), withSeed(w.Mix[1], 3)})
		},
	},
}

func lookup(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// warmUp plans the specs through the front door and remembers their IDs.
func (st *stack) warmUp(ctx context.Context, specs []cli.Spec) error {
	done, err := planAll(ctx, st.front, specs)
	if err != nil {
		return err
	}
	for _, s := range done {
		st.setupJobs = append(st.setupJobs, s.ID)
	}
	st.setupSpecs = append(st.setupSpecs, specs...)
	return nil
}

// awaitExports waits until the replicas have exported n warm artifacts
// between them and the router's view has refreshed, so the first timed
// submission already sees where each warm set lives.
func (st *stack) awaitExports(ctx context.Context, n int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		total := 0
		for _, r := range st.replicas {
			idx, err := r.srv.PeerIndex()
			if err != nil {
				return err
			}
			total += len(idx.Entries)
		}
		if total >= n {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d warm artifacts exported", total, n)
		}
		select {
		case <-time.After(10 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	select {
	case <-time.After(routerTTL):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
