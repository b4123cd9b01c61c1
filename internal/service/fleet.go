package service

// Fleet mode: instead of every job describing its own cluster, the server
// owns one heterogeneous fleet and a fleet.Allocator partitions it into
// leases, one per admitted job. Submit validates only the workload half of
// the spec (the GPUs field caps the lease size rather than naming a
// testbed), acquires a lease through the allocator — possibly shrinking
// elastic incumbents to make room — and the job plans against its lease view
// exactly like a dedicated-cluster job, through the same queue, worker pool
// and warm-cache registry. Identical-shaped leases share warm sets for free:
// ViewOf names views canonically by shape, and the workload fingerprint
// never sees fleet device identities.
//
// Lease lifecycle against the job lifecycle:
//
//	submit  → waiting (no capacity yet) or queued (lease granted)
//	queued  → lease may still be resized by the allocator (grown when a job
//	          finishes, shrunk to admit an arrival); the job just swaps views
//	running → the lease is pinned: a plan in progress is never resized under
//	          the worker planning it
//	terminal (done/failed/canceled) → the lease is released and the freed
//	          servers rebalance: waiting jobs admit first, incumbents grow
//	          onto the rest
//
// Every grant and release is recorded on the owning job's plan-update event
// log (lease-granted / lease-resized / lease-released), the same log the
// telemetry monitor writes drift events to.

import (
	"fmt"

	"heterog/internal/cli"
	"heterog/internal/cluster"
	"heterog/internal/fleet"
	"heterog/internal/store"
)

// FleetStatus is the wire representation of GET /v1/fleet: the allocator's
// partition snapshot plus the job states behind it.
type FleetStatus struct {
	fleet.State
	// JobStates maps every lease-holding or waiting job to its lifecycle
	// state, so one call shows which leases back running plans vs queued ones.
	JobStates map[string]JobState `json:"job_states,omitempty"`
}

// Fleet snapshots the fleet partition. ErrNotFound when the server does not
// run in fleet mode.
func (s *Server) Fleet() (*FleetStatus, error) {
	if s.fleetAlloc == nil {
		return nil, fmt.Errorf("%w: server does not run in fleet mode", ErrNotFound)
	}
	st := &FleetStatus{State: s.fleetAlloc.Snapshot(), JobStates: map[string]JobState{}}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, li := range st.Leases {
		if j := s.jobs[li.Job]; j != nil {
			st.JobStates[li.Job] = j.state
		}
	}
	for _, id := range st.Waiting {
		if j := s.jobs[id]; j != nil {
			st.JobStates[id] = j.state
		}
	}
	return st, nil
}

// submitFleet admits a job in fleet mode: record it waiting, ask the
// allocator for a lease (spec.GPUs caps the lease size; 0 = no cap), and
// apply whatever grants fall out — the new job's admission and any resizes
// of elastic incumbents that made room for it.
func (s *Server) submitFleet(spec cli.Spec) (*JobStatus, error) {
	if spec.Cluster != nil {
		return nil, fmt.Errorf("cli: fleet mode: the server owns the cluster; drop the cluster spec (gpus caps the lease size)")
	}
	if err := spec.ValidateWorkload(); err != nil {
		return nil, err
	}
	if spec.GPUs < 0 {
		return nil, fmt.Errorf("cli: fleet mode: gpus cap must be non-negative, got %d", spec.GPUs)
	}
	g, err := spec.BuildGraph()
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	if s.draining {
		s.rejected++
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.nextID++
	j := &job{
		id:        s.jobIDLocked(),
		spec:      spec,
		graph:     g,
		model:     g.Name,
		batch:     g.BatchSize,
		state:     JobWaiting,
		submitted: s.now(),
		done:      make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.accepted++
	s.evictJobsLocked()
	s.persistJobLocked(j)
	s.mu.Unlock()

	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	grants, err := s.fleetAlloc.Submit(fleet.JobSpec{
		ID:         j.id,
		Graph:      g,
		Seed:       seed,
		MaxDevices: spec.GPUs,
	})
	if err != nil {
		s.mu.Lock()
		j.state = JobFailed
		j.err = err.Error()
		j.failure = err
		j.finished = s.now()
		close(j.done)
		s.persistJobLocked(j)
		st := s.statusLocked(j)
		s.mu.Unlock()
		return st, err
	}
	s.applyGrants(grants)
	return s.Status(j.id)
}

// resubmitFleet puts a recovered fleet job back through the allocator for a
// fresh lease (the old one died with the previous process). Called from Open
// after the workers start.
func (s *Server) resubmitFleet(j *job) {
	seed := j.spec.Seed
	if seed == 0 {
		seed = 1
	}
	s.mu.Lock()
	s.persistJobLocked(j) // records the back-to-waiting state
	s.mu.Unlock()
	grants, err := s.fleetAlloc.Submit(fleet.JobSpec{
		ID:         j.id,
		Graph:      j.graph,
		Seed:       seed,
		MaxDevices: j.spec.GPUs,
	})
	if err != nil {
		s.mu.Lock()
		j.state = JobFailed
		j.err = fmt.Sprintf("recovery: %v", err)
		j.failure = err
		j.finished = s.now()
		close(j.done)
		s.persistJobLocked(j)
		s.mu.Unlock()
		return
	}
	s.applyGrants(grants)
}

// applyGrants folds allocator decisions into job records: waiting jobs with
// a fresh lease enqueue for planning, queued jobs swap onto their resized
// view, and every change lands on the job's event log. Grants can arrive out
// of order across concurrent Submit/Release calls, so a grant older than the
// job's current lease (by Lease.Seq) is dropped. Running jobs never see
// grants (their leases are pinned; the tiny pin race is resolved inside
// fleetPin), terminal ones have released already.
func (s *Server) applyGrants(grants []fleet.Grant) {
	for _, g := range grants {
		var enqueue *job
		s.mu.Lock()
		j := s.jobs[g.Job]
		if j == nil || (j.lease != nil && j.lease.Seq >= g.Lease.Seq) {
			s.mu.Unlock()
			continue
		}
		switch j.state {
		case JobWaiting:
			s.adoptLeaseLocked(j, g.Lease)
			j.state = JobQueued
			s.fleetEventLocked(j, EventLeaseGranted, "")
			s.persistJobLocked(j)
			s.persistLeaseLocked(j)
			enqueue = j
		case JobQueued:
			s.adoptLeaseLocked(j, g.Lease)
			reason := "lease grown after a release"
			if g.Shrunk {
				reason = "lease shrunk to admit an arrival"
			}
			s.fleetEventLocked(j, EventLeaseResized, reason)
			s.persistLeaseLocked(j)
		}
		s.mu.Unlock()
		if enqueue != nil {
			s.enqueueFleet(enqueue)
		}
	}
}

// adoptLeaseLocked points the job at a lease's view and re-keys its warm
// set. Callers hold s.mu.
func (s *Server) adoptLeaseLocked(j *job, l *cluster.Lease) {
	j.lease = l
	j.cluster = l.View
	j.warmKey = warmKey(&j.spec, j.graph, j.cluster)
}

// persistLeaseLocked records the job's current lease grant in the store.
// Callers hold s.mu.
func (s *Server) persistLeaseLocked(j *job) {
	if j.lease == nil {
		return
	}
	s.persistLease(store.LeaseRecord{
		Job:     j.id,
		Lease:   j.lease.ID,
		Devices: j.lease.NumDevices(),
		Seq:     j.lease.Seq,
	})
}

// fleetEventLocked appends a lease-lifecycle event to the job's plan-update
// log, creating a watcherless monitor if the job has none yet (telemetry can
// attach its drift watcher later). Callers hold s.mu.
func (s *Server) fleetEventLocked(j *job, typ EventType, reason string) {
	if j.mon == nil {
		j.mon = s.newJobMonitor(j.id)
	}
	ev := PlanEvent{Type: typ, Reason: reason}
	if j.lease != nil {
		ev.Lease = j.lease.ID
		ev.LeaseDevices = j.lease.NumDevices()
		ev.Cluster = j.lease.View.Name
	}
	j.mon.append(s.now(), ev)
}

// enqueueFleet hands a lease-holding job to the worker pool. Fleet-mode
// queue depth is sized to MaxJobs (admission control lives in the
// allocator), so a full queue means the retention bound itself is exceeded;
// such a job fails rather than silently wedging with a lease held.
func (s *Server) enqueueFleet(j *job) {
	s.mu.Lock()
	if j.state != JobQueued { // canceled between grant and enqueue
		s.mu.Unlock()
		return
	}
	select {
	case s.queue <- j:
		s.mu.Unlock()
		return
	default:
	}
	j.state = JobFailed
	j.err = ErrQueueFull.Error()
	j.failure = ErrQueueFull
	s.mu.Unlock()
	s.finishUnrun(j)
}

// finishUnrun completes a job that never ran and was just given a terminal
// state under s.mu: the state keeps late grants, workers and Cancel off it
// while its lease or waiting slot goes back to the fleet, and only then is
// the job stamped, persisted and its waiters woken. Callers do not hold s.mu.
func (s *Server) finishUnrun(j *job) {
	s.fleetRelease(j, j.state)
	s.mu.Lock()
	j.finished = s.now()
	j.started = j.finished
	s.persistJobLocked(j)
	close(j.done)
	s.mu.Unlock()
}

// fleetPin freezes the job's lease for the duration of planning and adopts
// the allocator's authoritative lease, closing the race window between a
// worker picking the job up and a concurrent resize grant that was minted
// before the pin but not yet applied (its Seq is older than or equal to the
// pinned lease's, so applyGrants drops it).
func (s *Server) fleetPin(j *job) {
	if s.fleetAlloc == nil {
		return
	}
	s.fleetAlloc.Pin(j.id)
	l := s.fleetAlloc.Lease(j.id)
	if l == nil {
		return
	}
	s.mu.Lock()
	if j.lease == nil || j.lease.Seq < l.Seq {
		s.adoptLeaseLocked(j, l)
	}
	s.mu.Unlock()
}

// fleetRelease returns a terminal job's lease (or waiting-queue slot) to the
// allocator and applies the rebalance that falls out: waiting jobs admit
// first, then incumbents grow. Safe to call for jobs that never held a lease
// and idempotent across repeated terminal paths.
func (s *Server) fleetRelease(j *job, state JobState) {
	if s.fleetAlloc == nil {
		return
	}
	s.mu.Lock()
	released := j.lease
	j.lease = nil // j.cluster stays: reports still describe the planned view
	if released != nil {
		s.fleetEventLocked(j, EventLeaseReleased, string(state))
		s.persistLease(store.LeaseRecord{
			Job:      j.id,
			Lease:    released.ID,
			Devices:  released.NumDevices(),
			Seq:      released.Seq,
			Released: true,
		})
	}
	s.mu.Unlock()
	grants := s.fleetAlloc.Release(j.id)
	s.applyGrants(grants)
}
