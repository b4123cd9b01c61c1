package main

import (
	"math"
	"math/rand"
	"time"

	"heterog/internal/cli"
)

// arrival is one submission of the open-loop schedule: the spec to submit and
// when it is due, as an offset from the start of the timed phase.
type arrival struct {
	At   time.Duration
	Spec cli.Spec
}

// tick is one scheduled telemetry push in drift-durable: base job Base gets
// the generator's next readings at offset At.
type tick struct {
	At   time.Duration
	Base int
}

// schedule draws the timed phase's arrivals from the seed alone: an open
// loop paced at the workload's rate: n = round(rate·window) arrivals, the
// i-th due at (i + ½ + j)·window/n with a seeded jitter j uniform in
// [-jitter, +jitter]. Not Poisson: at the few dozen jobs a run affords,
// Poisson bursts decide how many plans overlap on two cores, which swung the
// median latency by half between seeds. Specs are dealt
// from the workload's mix in seeded shuffled rounds, so every run submits
// the mix in the same proportions. Workloads with fresh seeds give each
// arrival its own search seed, which no other job in the run (set-up
// included) shares: the k-th spec of the mix gets seed base+r·len(mix)+k in
// round r, so every run plans the same (spec, seed) jobs, in another order
// and at other times.
func schedule(w *workload, seed int64, window time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(w.Rate * window.Seconds()))
	gap := float64(window) / float64(n)
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration((float64(i) + 0.5 + jitter*(2*rng.Float64()-1)) * gap)
	}
	out := make([]arrival, n)
	var deck []int
	for i := range out {
		if len(deck) == 0 {
			deck = rng.Perm(len(w.Mix))
		}
		k := deck[0]
		deck = deck[1:]
		spec := w.Mix[k]
		if w.FreshSeeds {
			spec.Seed = freshSeedBase + int64(i/len(w.Mix)*len(w.Mix)+k)
		}
		out[i] = arrival{At: at[i], Spec: spec}
	}
	return out
}

// jitter is how far, in mean gaps, an arrival may stray from its slot.
const jitter = 0.1

// freshSeedBase offsets the per-arrival search seeds of fresh-seed workloads
// past every seed a workload's mix or set-up uses.
const freshSeedBase = 1000

// ticks lays out drift-durable's telemetry pushes: each base job gets one push
// every period, the bases staggered evenly inside the period.
func ticks(bases int, period, window time.Duration) []tick {
	var out []tick
	for at := time.Duration(0); at < window; at += period {
		for b := 0; b < bases; b++ {
			out = append(out, tick{At: at + period*time.Duration(b)/time.Duration(bases), Base: b})
		}
	}
	return out
}
