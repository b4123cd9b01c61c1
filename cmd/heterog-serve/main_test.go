package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"heterog/internal/cli"
	"heterog/internal/cluster"
	"heterog/internal/router"
	"heterog/internal/service"
)

// serveEnv makes the test binary run main() instead of the tests, so a test
// can start a real heterog-serve process and SIGKILL it.
const serveEnv = "HETEROG_SERVE_TEST_AS_SERVER"

func TestMain(m *testing.M) {
	if os.Getenv(serveEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// spawnServe starts this binary as a fleet-mode server with one worker on a
// file store under dir and waits until it is ready. The process is killed at
// cleanup if the test has not killed it already; its log is shown when the
// test fails.
func spawnServe(t *testing.T, dir, logName string) (*exec.Cmd, *service.Client) {
	t.Helper()
	addrFile := filepath.Join(dir, "addr")
	_ = os.Remove(addrFile)
	logFile, err := os.Create(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0],
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-store", filepath.Join(dir, "store"),
		"-fleet-gpus", "8",
		"-workers", "1",
		"-node", "r1",
	)
	cmd.Env = append(os.Environ(), serveEnv+"=1")
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
		_ = logFile.Close()
		if t.Failed() {
			if raw, err := os.ReadFile(logFile.Name()); err == nil {
				t.Logf("%s:\n%s", logName, raw)
			}
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
			client := service.NewClient("http://" + string(raw))
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			err := client.Readyz(ctx)
			cancel()
			if err == nil {
				return cmd, client
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: server not ready within 30s", logName)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestKillRestartLosesNoJobs is the crash-recovery gate: a real server
// process on a file store is SIGKILLed mid-batch (at least one of 6 jobs
// done, at least one not) and restarted on the same store. Every accepted
// job must still exist and reach a terminal state, and every job's event
// log must be numbered 1..n with no gap across the two process lifetimes.
func TestKillRestartLosesNoJobs(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cmd, client := spawnServe(t, dir, "first.log")

	const n = 6
	var ids []string
	for i := 0; i < n; i++ {
		st, err := client.Submit(ctx, cli.Spec{Model: "vgg19", Batch: 32 + 16*i, Seed: 1, Episodes: 1, GPUs: 4})
		if err != nil {
			t.Fatalf("submit job %d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}
	doneBeforeKill := 0
	for deadline := time.Now().Add(time.Minute); ; {
		stats, err := client.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Done >= 1 && stats.Done < n {
			doneBeforeKill = stats.Done
			break
		}
		if stats.Done >= n || time.Now().After(deadline) {
			t.Fatalf("could not catch the server mid-batch (done=%d)", stats.Done)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no drain
		t.Fatal(err)
	}
	_, _ = cmd.Process.Wait()

	restart := time.Now()
	_, client = spawnServe(t, dir, "second.log")
	readySec := time.Since(restart).Seconds()

	lost := 0
	deadline := time.Now().Add(2 * time.Minute)
	for _, id := range ids {
		for {
			st, err := client.Status(ctx, id)
			if errors.Is(err, service.ErrNotFound) {
				lost++
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if st.State.Terminal() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s not terminal after restart (state %s)", id, st.State)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	gaps := 0
	for _, id := range ids {
		evs, err := client.Events(ctx, id, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, ev := range evs {
			if ev.Seq != uint64(i)+1 {
				gaps++
				break
			}
		}
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("killed after %d/%d done; restart ready in %.2fs, %d re-queued, all terminal in %.2fs; %d lost, %d logs with gaps",
		doneBeforeKill, n, readySec, stats.Recovery.Requeued, time.Since(restart).Seconds(), lost, gaps)
	if lost != 0 || gaps != 0 {
		t.Fatalf("restart lost %d of %d jobs and left %d event logs with gaps, want 0 and 0", lost, n, gaps)
	}
}

// serveLocal serves a handler on a loopback listener until test cleanup.
func serveLocal(t *testing.T, ln net.Listener, h http.Handler) {
	t.Helper()
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
}

// openReplica opens an in-process planning server on its own loopback
// listener, closed at test cleanup.
func openReplica(t *testing.T, cfg service.Config, ln net.Listener) {
	t.Helper()
	srv, err := service.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	serveLocal(t, ln, srv.Handler())
}

// listen binds a free loopback port.
func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// TestReplicasScaleWarmCapacity is the multi-replica throughput gate. Six
// workloads run for four rounds, one job at a time, against replicas that
// each keep only two warm sets. One replica thrashes; three replicas behind
// the affinity router split the mix so every repeat lands on its warm
// replica, and must finish the same jobs at >=1.5x one replica's
// throughput. Jobs never overlap, so the gain is warm-cache capacity, not
// CPU. The two arms alternate round by round (in ABBA order), so load from
// packages tested in parallel slows both alike.
func TestReplicasScaleWarmCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("plans real models")
	}
	const (
		workloads = 6
		rounds    = 4
		replicas  = 3
		warmSets  = 2
		threshold = 1.5
	)
	ctx := context.Background()
	specs := make([]cli.Spec, workloads)
	for i := range specs {
		specs[i] = cli.Spec{Model: "vgg19", Batch: 32 + 16*i, Seed: 1, Episodes: 1, GPUs: 4}
	}
	base := service.Config{Workers: 1, MaxWarmSets: warmSets}

	singleLn := listen(t)
	openReplica(t, base, singleLn)
	single := service.NewClient("http://" + singleLn.Addr().String())

	// Listeners first, so every replica knows its peers at construction.
	lns := make([]net.Listener, replicas)
	urls := make([]string, replicas)
	for i := range lns {
		lns[i] = listen(t)
		urls[i] = "http://" + lns[i].Addr().String()
	}
	for i := range lns {
		cfg := base
		cfg.NodeID = fmt.Sprintf("r%d", i+1)
		for j, u := range urls {
			if j != i {
				cfg.Peers = append(cfg.Peers, u)
			}
		}
		openReplica(t, cfg, lns[i])
	}
	rt, err := router.New(router.Config{Backends: urls, RefreshTTL: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rtLn := listen(t)
	serveLocal(t, rtLn, rt.Handler())
	multi := service.NewClient("http://" + rtLn.Addr().String())

	// round times one pass over the mix. Collecting garbage first, as
	// testing.B does before each run, keeps one arm's garbage from being
	// collected on the other arm's clock.
	round := func(c *service.Client) float64 {
		t.Helper()
		runtime.GC()
		start := time.Now()
		for _, sp := range specs {
			st, err := c.WithRetry(service.RetryPolicy{}).Submit(ctx, sp)
			if err != nil {
				t.Fatal(err)
			}
			fin, err := c.Wait(ctx, st.ID, 30*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if fin.State != service.JobDone {
				t.Fatalf("job %s ended %s: %s", st.ID, fin.State, fin.Error)
			}
		}
		return time.Since(start).Seconds()
	}
	var singleSec, multiSec float64
	for r := 0; r < rounds; r++ {
		if r%2 == 0 {
			singleSec += round(single)
			multiSec += round(multi)
		} else {
			multiSec += round(multi)
			singleSec += round(single)
		}
	}
	ratio := singleSec / multiSec
	t.Logf("%d jobs: one replica %.2fs, %d replicas + router %.2fs: %.2fx (threshold %.2fx)",
		workloads*rounds, singleSec, replicas, multiSec, ratio, threshold)
	if ratio < threshold {
		t.Fatalf("%d replicas reached %.2fx one replica's throughput, want >= %.2fx", replicas, ratio, threshold)
	}
}

// TestFleetLeasesBeatSequentialFleet is the fleet-scheduling gate. Four zoo
// jobs, each capped at a quarter of Testbed64, are planned concurrently on
// leases the allocator grants from one shared fleet; the baseline plans each
// alone on the whole fleet. In simulated training time, one iteration of all
// four costs the slowest lease's per-iteration time when they run side by
// side, and the sum of whole-fleet per-iteration times when they time-slice
// the fleet. The aggregate speedup (sum / max) must be >= 1.5x:
// heterogeneous fleets scale sublinearly, so partitioning wins.
func TestFleetLeasesBeatSequentialFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("plans resnet200 on 64 GPUs (about a minute)")
	}
	const threshold = 1.5
	ctx := context.Background()
	specs := []cli.Spec{
		{Model: "vgg19", Batch: 64, Seed: 1, Episodes: 1, GPUs: 16},
		{Model: "resnet200", Batch: 64, Seed: 1, Episodes: 1, GPUs: 16},
		{Model: "inception_v3", Batch: 64, Seed: 1, Episodes: 1, GPUs: 16},
		{Model: "mobilenet_v2", Batch: 64, Seed: 1, Episodes: 1, GPUs: 16},
	}
	plan := func(c *service.Client, sp cli.Spec) (*service.PlanReport, error) {
		st, err := c.Submit(ctx, sp)
		if err != nil {
			return nil, err
		}
		fin, err := c.Wait(ctx, st.ID, 30*time.Second)
		if err != nil {
			return nil, err
		}
		if fin.State != service.JobDone {
			return nil, fmt.Errorf("job %s (%s) ended %s: %s", st.ID, sp.Model, fin.State, fin.Error)
		}
		return c.Report(ctx, st.ID)
	}

	// Concurrent jobs on leases of one fleet. Admission order only changes
	// which servers each job gets, not the lease sizes.
	fleetLn := listen(t)
	openReplica(t, service.Config{Fleet: cluster.Testbed64(), JobTimeout: 10 * time.Minute}, fleetLn)
	fleet := service.NewClient("http://" + fleetLn.Addr().String())
	leased := make([]*service.PlanReport, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, sp := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			leased[i], errs[i] = plan(fleet, sp)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}

	// The baseline: each job alone on the whole fleet, one at a time.
	seqLn := listen(t)
	openReplica(t, service.Config{Workers: 1, JobTimeout: 10 * time.Minute}, seqLn)
	seq := service.NewClient("http://" + seqLn.Addr().String())
	var fleetIter, seqIter float64
	for i, sp := range specs {
		sp.GPUs = 64
		full, err := plan(seq, sp)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%-13s lease %-34s %2d dev %.4fs/iter (planned in %.1fs), whole fleet %.4fs/iter (%.1fs)",
			sp.Model, leased[i].Cluster, leased[i].Devices, leased[i].PerIterationSec, leased[i].PlanSec,
			full.PerIterationSec, full.PlanSec)
		fleetIter = max(fleetIter, leased[i].PerIterationSec)
		seqIter += full.PerIterationSec
	}
	speedup := seqIter / fleetIter
	t.Logf("leases %.4fs/iter (max) vs sequential %.4fs/iter (sum): %.2fx (threshold %.2fx)",
		fleetIter, seqIter, speedup, threshold)
	if speedup < threshold {
		t.Fatalf("aggregate speedup %.2fx, want >= %.2fx", speedup, threshold)
	}
}
