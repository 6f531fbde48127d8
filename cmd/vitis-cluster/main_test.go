package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestBuildPlanAssignsDistinctPublishers checks the workload plan
// invariants the delivery arithmetic depends on: exactly one publisher
// per topic, no node publishing two topics, and every publisher counted
// among its topic's subscribers.
func TestBuildPlanAssignsDistinctPublishers(t *testing.T) {
	cfg := clusterConfig{nodes: 20, topics: 8, subsPerNode: 3, alpha: 1.0, totalRate: 10, seed: 7}
	pl, err := buildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for tp, n := range pl.pubOf {
		if seen[n] {
			t.Fatalf("node %d publishes more than one topic", n)
		}
		seen[n] = true
		found := false
		for _, s := range pl.subsOf[tp] {
			if s == n {
				found = true
			}
		}
		if !found {
			t.Fatalf("publisher %d missing from subscribers of topic %d", n, tp)
		}
		if pl.pubArgs[n] == "" {
			t.Fatalf("publisher %d has empty -publish arg", n)
		}
		if pl.rates[tp] <= 0 {
			t.Fatalf("topic %d has non-positive rate %v", tp, pl.rates[tp])
		}
	}
	if len(seen) != cfg.topics {
		t.Fatalf("want %d publishers, got %d", cfg.topics, len(seen))
	}
}

func TestBuildPlanRejectsTooManyTopics(t *testing.T) {
	if _, err := buildPlan(clusterConfig{nodes: 3, topics: 4, subsPerNode: 1, totalRate: 1}); err == nil {
		t.Fatal("want error when topics exceed nodes")
	}
}

// TestClusterCatchUpSmoke runs the offline-subscriber scenario on a real
// 16-process cluster: every node keeps a durable store, ~20% of the
// subscribers are down for the whole publish window, and after rejoining
// they must reach full delivery purely through store-backed catch-up.
func TestClusterCatchUpSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-process cluster in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "vitis-node")
	if out, err := exec.Command("go", "build", "-o", bin, "vitis/cmd/vitis-node").CombinedOutput(); err != nil {
		t.Fatalf("building vitis-node: %v\n%s", err, out)
	}
	cfg := clusterConfig{
		nodes: 16, topics: 6, subsPerNode: 3, alpha: 1.0, totalRate: 12,
		publishFor: 8 * time.Second, settle: 3 * time.Second,
		joinTimeout: 2 * time.Minute, drainTimeout: 2 * time.Minute,
		stableFor: 3 * time.Second, periodMs: 200, seed: 42,
		nodeBin: bin, offlineFrac: 0.2,
	}
	var buf bytes.Buffer
	sum, err := runCluster(cfg, &buf)
	t.Logf("cluster output:\n%s", buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if sum.OfflineNodes < 3 {
		t.Fatalf("only %d nodes held offline, want >= 3 (20%% of 16)", sum.OfflineNodes)
	}
	if sum.DeliveryRatio < 0.999 {
		t.Fatalf("delivery ratio %.4f < 0.999 with offline subscribers (delivered %d of %d)",
			sum.DeliveryRatio, sum.Delivered, sum.Expected)
	}
	if sum.CatchUpDeliveries == 0 {
		t.Fatal("no deliveries came through catch-up — the late nodes got the events some other way")
	}
	if sum.CatchUpServedBytes == 0 || sum.CatchUpServed == 0 {
		t.Fatalf("stores served nothing: events=%d bytes=%d", sum.CatchUpServed, sum.CatchUpServedBytes)
	}
	if sum.StoreAppends == 0 || sum.StoreRecords == 0 {
		t.Fatalf("stores stayed empty: appends=%d records=%d", sum.StoreAppends, sum.StoreRecords)
	}
}

// TestClusterSmoke runs a real 16-process cluster end to end: every
// node a separate OS process with its own UDP socket, full delivery of
// the publish window, and no goroutine growth between join and drain.
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-process cluster in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "vitis-node")
	if out, err := exec.Command("go", "build", "-o", bin, "vitis/cmd/vitis-node").CombinedOutput(); err != nil {
		t.Fatalf("building vitis-node: %v\n%s", err, out)
	}
	cfg := clusterConfig{
		nodes: 16, topics: 6, subsPerNode: 3, alpha: 1.0, totalRate: 12,
		publishFor: 8 * time.Second, settle: 3 * time.Second,
		joinTimeout: 2 * time.Minute, drainTimeout: 2 * time.Minute,
		stableFor: 3 * time.Second, periodMs: 200, seed: 42,
		nodeBin: bin,
	}
	var buf bytes.Buffer
	sum, err := runCluster(cfg, &buf)
	t.Logf("cluster output:\n%s", buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Published == 0 {
		t.Fatal("no events published")
	}
	if sum.DeliveryRatio < 0.999 {
		t.Fatalf("delivery ratio %.4f < 0.999 (delivered %d of %d)",
			sum.DeliveryRatio, sum.Delivered, sum.Expected)
	}
	if sum.GoroutineGrowth > 0 {
		t.Fatalf("goroutines grew by %d at steady state (drained total %d) — per-peer leak",
			sum.GoroutineGrowth, sum.GoroutinesFinal)
	}
	// A vitis-node runs 10 goroutines whatever the cluster size (main, the
	// driver, the transport's reader, reaper and deadline, the HTTP server,
	// signal handling); the rest is headroom for connections being scraped.
	// One goroutine per known peer would make it 25 here.
	if sum.GoroutinesMax > 16 {
		t.Fatalf("a node runs %d goroutines, want at most 16 whatever the number of peers", sum.GoroutinesMax)
	}
	if sum.TxDatagrams == 0 || sum.TxFrames < sum.TxDatagrams {
		t.Fatalf("implausible wire counters: frames=%d datagrams=%d", sum.TxFrames, sum.TxDatagrams)
	}
	// Quiet heartbeats: a drained cluster sends its profiles as digests and
	// Wants only for new routing-table edges or lost full profiles; three
	// runs measured 0 over the window. A digest bug that bounced every
	// beacon through a Want would add about 15 per node per round here
	// while every delivery check still passed.
	if sum.ProfileWants > uint64(cfg.nodes) {
		t.Fatalf("%d profile Wants across the post-drain window, want at most one per node (%d)",
			sum.ProfileWants, cfg.nodes)
	}
	// A healthy run must be silent: the OPERATIONS.md alert rules are tuned
	// so steady-state gossip never trips them.
	if len(sum.AlertsFired) != 0 {
		t.Fatalf("alerts fired on a healthy cluster: %v", sum.AlertsFired)
	}
	// The live delivery-latency histogram must have accumulated real
	// observations (self-deliveries are excluded, so this proves remote
	// deliveries carried usable publish timestamps).
	if sum.DeliveryP50Sec <= 0 || sum.DeliveryP99Sec < sum.DeliveryP50Sec {
		t.Fatalf("implausible delivery latency percentiles: p50=%v p99=%v",
			sum.DeliveryP50Sec, sum.DeliveryP99Sec)
	}
}
