package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"heterog/internal/cli"
	"heterog/internal/service"
)

// submission is what the generator saw of one arrival.
type submission struct {
	Due, Sent, Recv time.Time
	Spec            string
	ID              string
	// Rejected marks backpressure (queue full or draining); Err any other
	// submit failure.
	Rejected bool
	Err      error
	// Final is the job's terminal status (nil when it never got one).
	Final *service.JobStatus
}

// drive submits the arrivals open-loop: each is sent at its due time whether
// or not earlier jobs have finished, by at most conns goroutines (one
// connection each). A goroutine that falls behind sends late and the lag
// shows as Sent-Due. Rejected submissions are not retried.
func drive(ctx context.Context, c *service.Client, arrivals []arrival, start time.Time, conns int, rec *recorder) []submission {
	subs := make([]submission, len(arrivals))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(arrivals) {
					return
				}
				a := arrivals[i]
				sub := &subs[i]
				sub.Due = start.Add(a.At)
				sub.Spec = specKey(a.Spec)
				if d := time.Until(sub.Due); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						sub.Err = ctx.Err()
						return
					}
				}
				sub.Sent = time.Now()
				st, err := c.Submit(ctx, a.Spec)
				sub.Recv = time.Now()
				switch {
				case errors.Is(err, service.ErrQueueFull), errors.Is(err, service.ErrDraining):
					sub.Rejected = true
				case err != nil:
					sub.Err = err
				default:
					sub.ID = st.ID
					rec.add("service.submit_rtt", st.ID, -1, sub.Sent, sub.Recv)
				}
			}
		}()
	}
	wg.Wait()
	return subs
}

// collect waits for every accepted submission to reach a terminal state, by
// the deadline. Latency comes from the server's timestamps, so how promptly
// this loop notices a finished job does not matter.
func collect(ctx context.Context, c *service.Client, subs []submission, deadline time.Time) error {
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	for i := range subs {
		s := &subs[i]
		if s.ID == "" {
			continue
		}
		st, err := c.Wait(ctx, s.ID, 5*time.Second)
		if err != nil {
			return fmt.Errorf("wait %s: %w", s.ID, err)
		}
		s.Final = st
	}
	return nil
}

// planAll submits the specs at once and waits for every job to finish done;
// set-up uses it for the warm-up jobs.
func planAll(ctx context.Context, c *service.Client, specs []cli.Spec) ([]*service.JobStatus, error) {
	ids := make([]string, len(specs))
	for i, sp := range specs {
		st, err := c.Submit(ctx, sp)
		if err != nil {
			return nil, fmt.Errorf("set-up submit %s: %w", specKey(sp), err)
		}
		ids[i] = st.ID
	}
	out := make([]*service.JobStatus, len(ids))
	for i, id := range ids {
		st, err := c.Wait(ctx, id, 30*time.Second)
		if err != nil {
			return nil, fmt.Errorf("set-up wait %s: %w", id, err)
		}
		if st.State != service.JobDone {
			return nil, fmt.Errorf("set-up job %s (%s) ended %s: %s", id, specKey(specs[i]), st.State, st.Error)
		}
		out[i] = st
	}
	return out, nil
}
