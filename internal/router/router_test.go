package router

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"heterog/internal/cli"
	"heterog/internal/service"
)

// replicas starts one in-process replica per node name ("" leaves NodeID
// unset) and returns their base URLs.
func replicas(t *testing.T, nodes ...string) []string {
	t.Helper()
	urls := make([]string, len(nodes))
	for i, node := range nodes {
		srv, err := service.Open(service.Config{Workers: 1, MaxWarmSets: 1, NodeID: node})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); _ = srv.Close() })
		urls[i] = ts.URL
	}
	return urls
}

// front starts a router over the backends and returns a client for it.
func front(t *testing.T, backends []string, ttl time.Duration) *service.Client {
	t.Helper()
	rt, err := New(Config{Backends: backends, RefreshTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return service.NewClient(ts.URL)
}

// fleet spins up n named in-process replicas plus a router in front of them.
func fleet(t *testing.T, n int) *service.Client {
	t.Helper()
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = string(rune('a' + i))
	}
	return front(t, replicas(t, nodes...), 20*time.Millisecond)
}

// routerStatus reads the router's own view from GET /v1/router.
func routerStatus(t *testing.T, c *service.Client) Status {
	t.Helper()
	resp, err := http.Get(c.BaseURL + "/v1/router")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status Status
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	return status
}

func spec(batch int) cli.Spec {
	return cli.Spec{Model: "vgg19", Batch: batch, GPUs: 4, Seed: 1, Episodes: 1}
}

// nodeOf extracts the replica prefix from a routed job ID ("b-job-000001").
func nodeOf(t *testing.T, id string) string {
	t.Helper()
	i := strings.Index(id, "-job-")
	if i < 0 {
		t.Fatalf("job ID %q has no node prefix", id)
	}
	return id[:i]
}

// TestRouterAffinityAndProxy covers the router end to end: submissions spread
// across replicas, repeat workloads stick to the replica that already planned
// them, and per-job requests proxy to the owner.
func TestRouterAffinityAndProxy(t *testing.T) {
	ctx := context.Background()
	c := fleet(t, 2)

	run := func(batch int) *service.JobStatus {
		t.Helper()
		st, err := c.Submit(ctx, spec(batch))
		if err != nil {
			t.Fatal(err)
		}
		fin, err := c.Wait(ctx, st.ID, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if fin.State != service.JobDone {
			t.Fatalf("job %s = %s (%s)", st.ID, fin.State, fin.Error)
		}
		return fin
	}

	first := run(64)
	second := run(96) // distinct workload: load-balanced to the colder replica
	if nodeOf(t, first.ID) == nodeOf(t, second.ID) {
		t.Fatalf("two fresh workloads landed on the same replica (%s, %s)", first.ID, second.ID)
	}
	// Repeats must follow their warm caches, in either submission order.
	for _, batch := range []int{96, 64, 96, 64} {
		want := first
		if batch == 96 {
			want = second
		}
		if again := run(batch); nodeOf(t, again.ID) != nodeOf(t, want.ID) {
			t.Fatalf("repeat of batch %d landed on %s, owner was %s", batch, again.ID, want.ID)
		}
	}

	// Per-job proxying: status and report for both jobs through the front.
	for _, id := range []string{first.ID, second.ID} {
		st, err := c.Status(ctx, id)
		if err != nil || st.ID != id {
			t.Fatalf("status %s via router: %+v, %v", id, st, err)
		}
		if _, err := c.Report(ctx, id); err != nil {
			t.Fatalf("report %s via router: %v", id, err)
		}
	}
	// Listing merges both replicas.
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 6 {
		t.Fatalf("merged listing has %d jobs, want 6", len(jobs))
	}

	// The router's own introspection endpoint.
	if status := routerStatus(t, c); status.Routed != 6 || len(status.Backends) != 2 {
		t.Fatalf("router status = %+v, want 6 routed over 2 backends", status)
	}
}

// TestRouterReadyz: ready while any backend is up; 503 when none are.
func TestRouterReadyz(t *testing.T) {
	ctx := context.Background()
	rt, err := New(Config{Backends: []string{"http://127.0.0.1:1"}, RefreshTTL: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	if err := service.NewClient(front.URL).Readyz(ctx); err == nil {
		t.Fatal("router ready with no reachable backend")
	}

	c := fleet(t, 1)
	if err := c.Readyz(ctx); err != nil {
		t.Fatalf("router with one live backend not ready: %v", err)
	}
}

// TestRouterFindsJobsItNeverPlaced: a router that has just started, with no
// submissions and a view TTL far longer than the test, must still proxy
// status and report for a job created directly on a replica, resolving the
// owner from the job ID's node prefix.
func TestRouterFindsJobsItNeverPlaced(t *testing.T) {
	ctx := context.Background()
	urls := replicas(t, "a", "b")
	direct := service.NewClient(urls[1])
	st, err := direct.Submit(ctx, spec(64))
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := direct.Wait(ctx, st.ID, 30*time.Second); err != nil || fin.State != service.JobDone {
		t.Fatalf("direct job = %+v, %v", fin, err)
	}

	c := front(t, urls, time.Hour)
	got, err := c.Status(ctx, st.ID)
	if err != nil || got.ID != st.ID || got.State != service.JobDone {
		t.Fatalf("status %s via fresh router: %+v, %v", st.ID, got, err)
	}
	if _, err := c.Report(ctx, st.ID); err != nil {
		t.Fatalf("report %s via fresh router: %v", st.ID, err)
	}
	// An ID naming no backend is a 404, not a guess.
	if _, err := c.Status(ctx, "c-job-000001"); !errors.Is(err, service.ErrNotFound) {
		t.Fatalf("status of a job on an unknown node: %v, want not found", err)
	}
}

// TestRouterNeedsDistinctNodeNames: a replica without a node name, or one
// sharing its name with another, cannot own routable job IDs, so
// /v1/router reports it not ready and submissions avoid it.
func TestRouterNeedsDistinctNodeNames(t *testing.T) {
	urls := replicas(t, "a", "", "d", "d")
	c := front(t, urls, time.Hour)
	status := routerStatus(t, c)
	if len(status.Backends) != 4 {
		t.Fatalf("router status = %+v, want 4 backends", status)
	}
	for i, want := range []bool{true, false, false, false} {
		if b := status.Backends[i]; b.Ready != want {
			t.Errorf("backend %d (node %q) ready = %v, want %v", i, b.Node, b.Ready, want)
		}
	}
	st, err := c.Submit(context.Background(), spec(64))
	if err != nil {
		t.Fatal(err)
	}
	if node := nodeOf(t, st.ID); node != "a" {
		t.Fatalf("job %s placed on node %q, want the only ready replica a", st.ID, node)
	}
}

// TestRouterKeepsNodeOfDownReplica: a refresh that fails marks the replica
// not ready but keeps its last known node name, so requests for its jobs
// still go to it (and fail there) instead of answering "no such job".
func TestRouterKeepsNodeOfDownReplica(t *testing.T) {
	srv, err := service.Open(service.Config{Workers: 1, NodeID: "a"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	c := front(t, []string{ts.URL}, time.Millisecond)
	if b := routerStatus(t, c).Backends[0]; !b.Ready || b.Node != "a" {
		t.Fatalf("live replica view = %+v, want ready node a", b)
	}
	ts.Close()
	time.Sleep(5 * time.Millisecond)
	if b := routerStatus(t, c).Backends[0]; b.Ready || b.Node != "a" {
		t.Fatalf("down replica view = %+v, want not ready, node still a", b)
	}
	if _, err := c.Status(context.Background(), "a-job-000001"); err == nil || errors.Is(err, service.ErrNotFound) {
		t.Fatalf("status of a down replica's job: %v, want a proxy error, not not-found", err)
	}
}
