package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"heterog/internal/cli"
	"heterog/internal/router"
	"heterog/internal/service"
	"heterog/internal/store"
)

// replica is one in-process heterog-serve instance on a loopback listener.
type replica struct {
	srv   *service.Server
	http  *http.Server
	url   string
	store *timedStore
}

// stack is one set-up of a workload's serving topology: replicas, an
// optional router in front, and the generator's client on the front door.
type stack struct {
	replicas []*replica
	router   *http.Server
	routed   bool
	front    *service.Client
	// direct talks to the replicas without the router (index-aligned).
	direct   []*service.Client
	estimate *timedEstimate
	// storeOpen is the time store.Open or store.NewMem took per replica.
	storeOpen []float64
	// setupJobs are the IDs planned during warm-up; bases are the
	// drift-durable jobs the telemetry stream targets.
	setupJobs  []string
	setupSpecs []cli.Spec
	bases      []string
	// dirs are file-store directories (drift-durable) to reopen and check.
	dirs       []string
	transports []*http.Transport
}

// newClient returns a client whose transport holds at most conns connections.
func (st *stack) newClient(base string, conns int) *service.Client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	st.transports = append(st.transports, tr)
	c := service.NewClient(base)
	c.HTTPClient = &http.Client{Transport: tr}
	return c
}

// replicaSpec configures one replica of a topology.
type replicaSpec struct {
	cfg service.Config
	// dir selects a fsynced file store there; "" keeps an in-memory store.
	dir string
}

// build starts the replicas (peered with each other when peer is set) and,
// when routed, a router in front of them. Every listener is bound before any
// server is opened so peers can name each other at construction.
func build(specs []replicaSpec, peer, routed bool, conns int) (*stack, error) {
	st := &stack{estimate: &timedEstimate{calls: durations{name: "fleet.estimate"}}}
	lns := make([]net.Listener, len(specs))
	for i := range specs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.close()
			return nil, err
		}
		lns[i] = ln
		st.replicas = append(st.replicas, &replica{url: "http://" + ln.Addr().String()})
	}
	for i, rs := range specs {
		cfg := rs.cfg
		var backend store.Store
		t0 := time.Now()
		if rs.dir != "" {
			f, err := store.Open(rs.dir)
			if err != nil {
				closeAll(lns[i:])
				st.close()
				return nil, fmt.Errorf("open store: %w", err)
			}
			backend = f
			st.dirs = append(st.dirs, rs.dir)
		} else {
			backend = store.NewMem()
		}
		st.storeOpen = append(st.storeOpen, time.Since(t0).Seconds())
		r := st.replicas[i]
		r.store = &timedStore{Store: backend, writes: durations{name: "store.append"}}
		cfg.Store = r.store
		if cfg.Fleet != nil {
			cfg.FleetEstimate = st.estimate.estimate
		}
		if peer {
			for j, o := range st.replicas {
				if j != i {
					cfg.Peers = append(cfg.Peers, o.url)
				}
			}
		}
		srv, err := service.Open(cfg)
		if err != nil {
			_ = backend.Close()
			closeAll(lns[i:])
			st.close()
			return nil, fmt.Errorf("open service: %w", err)
		}
		r.srv = srv
		r.http = &http.Server{Handler: srv.Handler()}
		go r.http.Serve(lns[i])
		st.direct = append(st.direct, st.newClient(r.url, conns))
	}
	st.front = st.direct[0]
	if routed {
		urls := make([]string, len(st.replicas))
		for i, r := range st.replicas {
			urls[i] = r.url
		}
		rt, err := router.New(router.Config{Backends: urls, RefreshTTL: routerTTL})
		if err != nil {
			st.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.close()
			return nil, err
		}
		st.router, st.routed = &http.Server{Handler: rt.Handler()}, true
		go st.router.Serve(ln)
		st.front = st.newClient("http://"+ln.Addr().String(), conns)
	}
	return st, nil
}

// routerTTL is how stale the router's view of a replica may get; short
// enough that a job planned during set-up is visible to the first timed
// submission.
const routerTTL = 250 * time.Millisecond

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		_ = ln.Close()
	}
}

// close drains every replica (accepted jobs finish), stops the HTTP servers
// and closes the stores, then drops them so their memory can be reclaimed.
// It returns the first error; closing again is a no-op.
func (st *stack) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if st.router != nil {
		keep(st.router.Close())
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, r := range st.replicas {
		if r.srv != nil {
			keep(r.srv.Drain(ctx))
		}
		if r.http != nil {
			keep(r.http.Close())
		}
		if r.store != nil {
			keep(r.store.Close())
		}
		r.srv, r.http, r.store = nil, nil, nil
	}
	st.router = nil
	for _, tr := range st.transports {
		tr.CloseIdleConnections()
	}
	return first
}
