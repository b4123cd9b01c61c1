package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"heterog/internal/cluster"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		window := 15 * time.Second
		a, b := schedule(w, 7, window), schedule(w, 7, window)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: the same seed gave two different schedules", w.Name)
		}
		if c := schedule(w, 8, window); reflect.DeepEqual(a, c) {
			t.Fatalf("%s: seeds 7 and 8 gave the same schedule", w.Name)
		}
		if want := int(w.Rate*window.Seconds() + 0.5); len(a) != want {
			t.Fatalf("%s: %d arrivals, want %d", w.Name, len(a), want)
		}
		for i := 1; i < len(a); i++ {
			if a[i].At < a[i-1].At || a[i].At >= window {
				t.Fatalf("%s: arrival %d at %v out of order or outside the window", w.Name, i, a[i].At)
			}
		}
	}
}

func TestScheduleDealsTheMixEvenly(t *testing.T) {
	w, err := lookup("cold-search")
	if err != nil {
		t.Fatal(err)
	}
	rounds := 3
	window := time.Duration(float64(rounds*len(w.Mix))/w.Rate*float64(time.Second)) + time.Millisecond
	count := map[string]int{}
	seeds := map[int64]bool{}
	for _, a := range schedule(w, 3, window) {
		sp := a.Spec
		seeds[sp.Seed] = true
		sp.Seed = 0
		count[specKey(sp)]++
	}
	if len(count) != len(w.Mix) {
		t.Fatalf("dealt %d distinct specs, want %d", len(count), len(w.Mix))
	}
	for k, n := range count {
		if n != rounds {
			t.Fatalf("%s dealt %d times, want %d", k, n, rounds)
		}
	}
	if len(seeds) != rounds*len(w.Mix) {
		t.Fatalf("%d distinct search seeds for %d fresh-seed arrivals", len(seeds), rounds*len(w.Mix))
	}
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted
	}
	got, ok := tailOf(xs)
	if !ok || got.Value != 90 || got.Percentile != 90 || got.N != 100 {
		t.Fatalf("tail of 1..100 = %+v (ok %v), want the 90th percentile, 90", got, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > got.Value {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}
	got, ok = tailOf(xs[:11])
	if !ok || got.Value != 90 || got.N != 11 {
		t.Fatalf("tail of 11 samples = %+v (ok %v), want the smallest", got, ok)
	}
	if _, ok := tailOf(xs[:10]); ok {
		t.Fatal("10 samples cannot have 10 beyond any percentile")
	}
}

func TestHarrellDavisQuantile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted
	}
	// On 1..n the estimate is the expected rank, n·p + ½.
	for _, c := range []struct{ p, want float64 }{{0.5, 50.5}, {0.9, 90.5}} {
		if got := hdQuantile(xs, c.p); math.Abs(got-c.want) > 0.01 {
			t.Fatalf("hdQuantile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Two groups of samples, 1s and 2s: when four samples cross from one
	// group to the other across the median's rank, the nearest-rank median
	// jumps the whole gap and the estimate moves by less than half of it.
	groups := func(ones int) []float64 {
		ys := make([]float64, 100)
		for i := range ys {
			ys[i] = 2
			if i < ones {
				ys[i] = 1
			}
		}
		return ys
	}
	if nr := median(groups(48)) - median(groups(52)); nr != 1 {
		t.Fatalf("nearest-rank median moved %v, want the whole gap", nr)
	}
	if d := hdQuantile(groups(48), 0.5) - hdQuantile(groups(52), 0.5); d <= 0 || d >= 0.5 {
		t.Fatalf("estimate moved %v across the gap, want less than half of it", d)
	}
	if got := hdQuantile([]float64{7, 7, 7}, 0.5); math.Abs(got-7) > 1e-12 {
		t.Fatalf("hdQuantile of equal samples = %v, want 7", got)
	}
}

func TestSelfTimeIsDurationMinusUnionOfChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	spans := []span{
		{Name: "job", Start: at(0), End: at(10), Parent: -1},
		{Name: "a", Start: at(1), End: at(3), Parent: 0},
		{Name: "b", Start: at(2), End: at(5), Parent: 0},  // overlaps a
		{Name: "c", Start: at(8), End: at(12), Parent: 0}, // runs past the parent
		{Name: "d", Start: at(2.5), End: at(3.5), Parent: 2},
	}
	self := selfTimes(spans)
	want := []float64{10 - (4 + 2), 2, 3 - 1, 4, 1}
	for i, w := range want {
		if got := self[i].Seconds(); got < w-1e-9 || got > w+1e-9 {
			t.Fatalf("self(%s) = %v s, want %v s", spans[i].Name, got, w)
		}
	}
	layers := layerSelf(append(spans, span{Name: "a", Start: at(20), End: at(21), Parent: -1}))
	for name, w := range map[string]float64{"job": 4, "a": 2, "b": 2, "c": 4, "d": 1} {
		if got := layers[name]; got < w-1e-9 || got > w+1e-9 {
			t.Fatalf("layer %s self time %v s, want %v s (spans outside a job tree count nowhere)", name, got, w)
		}
	}
}

func TestLeaseViewRebuildsShape(t *testing.T) {
	fleet := cluster.Testbed64()
	// Servers 1 (V100) and 6 (1080Ti), all four GPUs each.
	ids := []int{4, 5, 6, 7, 24, 25, 26, 27}
	v, err := fleet.ViewOf(ids...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := leaseView(fleet, v.Name)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != v.Name || got.NumDevices() != len(ids) {
		t.Fatalf("rebuilt %s (%d devices), want %s", got.Name, got.NumDevices(), v.Name)
	}
	if _, err := leaseView(fleet, "testbed-4gpu"); err == nil {
		t.Fatal("a cluster name that is not a view shape was accepted")
	}
}
