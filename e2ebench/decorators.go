package main

import (
	"sync"
	"time"

	"heterog/internal/cluster"
	"heterog/internal/core"
	"heterog/internal/graph"
	"heterog/internal/store"
)

// durations is a concurrency-safe list of measured call times, each also
// recorded as a span named name when rec is set.
type durations struct {
	name string
	rec  *recorder
	mu   sync.Mutex
	xs   []float64
}

func (d *durations) observe(job string, start time.Time) {
	end := time.Now()
	d.mu.Lock()
	rec := d.rec
	d.xs = append(d.xs, end.Sub(start).Seconds())
	d.mu.Unlock()
	rec.add(d.name, job, -1, start, end)
}

func (d *durations) values() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]float64(nil), d.xs...)
}

// reset forgets the calls so far and records spans into rec from now on.
func (d *durations) reset(rec *recorder) {
	d.mu.Lock()
	d.xs, d.rec = nil, rec
	d.mu.Unlock()
}

// timedStore times every write the service makes through its store.Store
// seam. Reads pass through untimed.
type timedStore struct {
	store.Store
	writes durations
}

func (t *timedStore) PutJob(rec store.JobRecord) error {
	defer t.writes.observe(rec.ID, time.Now())
	return t.Store.PutJob(rec)
}

func (t *timedStore) AppendEvent(jobID string, ev store.EventRecord) error {
	defer t.writes.observe(jobID, time.Now())
	return t.Store.AppendEvent(jobID, ev)
}

func (t *timedStore) PutLease(rec store.LeaseRecord) error {
	defer t.writes.observe(rec.Job, time.Now())
	return t.Store.PutLease(rec)
}

func (t *timedStore) PutArtifact(key string, blob []byte) error {
	defer t.writes.observe("", time.Now())
	return t.Store.PutArtifact(key, blob)
}

// timedEstimate is the fleet allocator's default estimator,
// core.EstimateLeaseTime, timed; the service takes it through
// service.Config.FleetEstimate.
type timedEstimate struct {
	calls durations
}

func (t *timedEstimate) estimate(g *graph.Graph, v *cluster.View, seed int64) (float64, error) {
	defer t.calls.observe("", time.Now())
	return core.EstimateLeaseTime(g, v, seed)
}
