package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"heterog/internal/cluster"
	"heterog/internal/service"
	"heterog/internal/telemetry"
)

// driftRun drives drift-durable's telemetry side during the timed phase: a
// pusher sends each base job seeded generator readings on a fixed schedule,
// and one reader per base job follows its event log.
type driftRun struct {
	mu       sync.Mutex
	pushRTT  []float64
	trips    []trip
	received []received
	pushErr  error

	pushed  chan struct{} // closed once the last push is sent
	readers sync.WaitGroup
	cancel  context.CancelFunc
	// readErr holds the first reader failure (other than being stopped).
	readErr error
}

// trip is a push that tripped a base job's drift watcher.
type trip struct {
	Base int
	Seq  uint64 // the drift-detected event's sequence number
	Due  time.Time
}

// received is one event as a reader saw it.
type received struct {
	Base int
	Ev   service.PlanEvent
	At   time.Time
}

func startDrift(ctx context.Context, st *stack, seed int64, window time.Duration, start time.Time, rec *recorder) (*driftRun, error) {
	d := &driftRun{pushed: make(chan struct{})}
	readClient := st.newClient(st.replicas[0].url, len(st.bases))
	since := make([]uint64, len(st.bases))
	for b, id := range st.bases {
		evs, err := st.front.Events(ctx, id, 0, 0)
		if err != nil {
			return nil, err
		}
		if n := len(evs); n > 0 {
			since[b] = evs[n-1].Seq
		}
	}
	rctx, cancel := context.WithCancel(ctx)
	d.cancel = cancel
	for b, id := range st.bases {
		d.readers.Add(1)
		go func(b int, id string) {
			defer d.readers.Done()
			err := readClient.StreamEvents(rctx, id, since[b], func(ev service.PlanEvent) error {
				d.mu.Lock()
				d.received = append(d.received, received{Base: b, Ev: ev, At: time.Now()})
				d.mu.Unlock()
				return nil
			})
			if err != nil && rctx.Err() == nil {
				d.mu.Lock()
				d.readErr = fmt.Errorf("event reader %s: %w", id, err)
				d.mu.Unlock()
			}
		}(b, id)
	}

	schedule := ticks(len(st.bases), driftPeriod, window)
	// Enough drift cycles that no generator runs out inside the window.
	var phases []telemetry.Phase
	cycle := 0
	for _, p := range driftPhases {
		cycle += p.Ticks
	}
	for n := 0; n*cycle <= len(schedule)/len(st.bases)+cycle; n++ {
		phases = append(phases, driftPhases...)
	}
	gens := make([]*telemetry.Generator, len(st.bases))
	for b := range gens {
		gens[b] = telemetry.NewGenerator(cluster.Testbed8(), telemetry.GenConfig{Seed: seed*16 + int64(b), Phases: phases})
	}
	pushClient := st.newClient(st.replicas[0].url, 1)
	go func() {
		defer close(d.pushed)
		for _, tk := range schedule {
			due := start.Add(tk.At)
			select {
			case <-time.After(time.Until(due)):
			case <-ctx.Done():
				return
			}
			readings := gens[tk.Base].Step()
			t0 := time.Now()
			ack, err := pushClient.PushTelemetry(ctx, st.bases[tk.Base], readings)
			t1 := time.Now()
			rec.add("telemetry.push", st.bases[tk.Base], -1, t0, t1)
			d.mu.Lock()
			if err != nil {
				d.pushErr = fmt.Errorf("push to %s: %w", st.bases[tk.Base], err)
				d.mu.Unlock()
				return
			}
			d.pushRTT = append(d.pushRTT, t1.Sub(t0).Seconds())
			if ack.Fired {
				d.trips = append(d.trips, trip{Base: tk.Base, Seq: ack.Events, Due: due})
			}
			d.mu.Unlock()
		}
	}()
	return d, nil
}

// resolving reports whether an event closes a drift episode.
func resolving(t service.EventType) bool {
	return t == service.EventReplanAdopted || t == service.EventReplanKeptIncumbent || t == service.EventReplanFailed
}

// resolution returns when the reader received the first episode-closing
// event after the trip, if it has.
func (d *driftRun) resolution(t trip) (time.Time, bool) {
	for _, r := range d.received {
		if r.Base == t.Base && r.Ev.Seq > t.Seq && resolving(r.Ev.Type) {
			return r.At, true
		}
	}
	return time.Time{}, false
}

// finish waits for the last push and for every trip's episode to close,
// then stops the readers.
func (d *driftRun) finish(deadline time.Time) error {
	defer func() {
		d.cancel()
		d.readers.Wait()
	}()
	<-d.pushed
	for {
		d.mu.Lock()
		err := d.pushErr
		if err == nil {
			err = d.readErr
		}
		open := 0
		for _, t := range d.trips {
			if _, ok := d.resolution(t); !ok {
				open++
			}
		}
		d.mu.Unlock()
		if err != nil {
			return err
		}
		if open == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d drift episodes never resolved", open)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// fleetSampler polls /v1/fleet during fleet-lease's timed phase: the leased
// share of the fleet, and whether the leases ever overcommit it.
type fleetSampler struct {
	mu     sync.Mutex
	shares []float64
	err    error
	stop   context.CancelFunc
	done   chan struct{}
}

func startFleetSampler(ctx context.Context, c *service.Client) *fleetSampler {
	ctx, cancel := context.WithCancel(ctx)
	f := &fleetSampler{stop: cancel, done: make(chan struct{})}
	go func() {
		defer close(f.done)
		tk := time.NewTicker(50 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tk.C:
			}
			fs, err := c.Fleet(ctx)
			if ctx.Err() != nil {
				return
			}
			f.mu.Lock()
			if err == nil {
				err = f.observe(fs)
			}
			if err != nil && f.err == nil {
				f.err = err
			}
			f.mu.Unlock()
		}
	}()
	return f
}

// observe checks one snapshot: no device leased twice and the leases never
// exceeding the fleet. Callers hold f.mu.
func (f *fleetSampler) observe(fs *service.FleetStatus) error {
	seen := map[int]string{}
	used := 0
	for _, l := range fs.Leases {
		for _, d := range l.Devices {
			if other, ok := seen[d]; ok {
				return fmt.Errorf("device %d leased to both %s and %s", d, other, l.Job)
			}
			seen[d] = l.Job
		}
		used += len(l.Devices)
	}
	if used > fs.TotalDevices {
		return fmt.Errorf("leases hold %d devices of a %d-device fleet", used, fs.TotalDevices)
	}
	f.shares = append(f.shares, float64(used)/float64(fs.TotalDevices))
	return nil
}

func (f *fleetSampler) finish() error {
	f.stop()
	<-f.done
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil && len(f.shares) == 0 {
		return fmt.Errorf("no fleet snapshot sampled")
	}
	return f.err
}
