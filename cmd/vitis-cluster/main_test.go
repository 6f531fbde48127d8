package main

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"vitis/internal/harness"
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

// TestReport checks the report phase on canned scrapes, without a
// process: exact expected-delivery arithmetic (published x subscribers per
// topic), the wire and memory folds, the leak probe's goroutine growth and
// the store rows of the offline scenario.
func TestReport(t *testing.T) {
	cfg := clusterConfig{nodes: 4, topics: 2, publishFor: 10 * time.Second, periodMs: 200}
	pl := &plan{
		subsOf:  [][]int{{0, 1, 2}, {1, 3}},
		pubOf:   []int{0, 1},
		offline: []int{3},
		stores:  true,
	}
	node := func(pub, del, gr, rss float64) map[string]float64 {
		return map[string]float64{
			"vitis_core_published_total":           pub,
			"vitis_core_deliveries_total":          del,
			"vitis_go_goroutines":                  gr,
			"vitis_proc_max_rss_bytes":             rss,
			"vitis_transport_tx_frames_total":      50,
			"vitis_transport_tx_datagrams_total":   25,
			"vitis_transport_tx_bytes_total":       925,
			"vitis_store_catchup_deliveries_total": 1,
		}
	}
	final := []map[string]float64{node(10, 10, 10, 4<<20), node(4, 14, 10, 6<<20), node(0, 9, 11, 5<<20), node(0, 4, 12, 5<<20)}
	final[0]["vitis_core_profile_wants_total"] = 5
	steady := []map[string]float64{{"vitis_go_goroutines": 44, "vitis_core_profile_wants_total": 7}}
	j := joined{sec: 2.5, scrape: []map[string]float64{{"vitis_go_goroutines": 40}}}
	d := drained{final: final, steady: steady, loadSec: 10, catchUpSec: 4}
	mon := newMonitor(cfg.nodes, 1000, false, io.Discard)

	s := report(cfg, pl, j, d, mon)
	// Topic 0: 10 events x 3 subscribers; topic 1: 4 x 2. One delivery lost.
	if s.Published != 14 || s.Expected != 38 || s.Delivered != 37 {
		t.Fatalf("published/expected/delivered = %d/%d/%d, want 14/38/37", s.Published, s.Expected, s.Delivered)
	}
	if math.Abs(s.DeliveryRatio-37.0/38) > 1e-12 || s.MsgsPerSec != 3.7 {
		t.Fatalf("ratio %v, msgs/sec %v", s.DeliveryRatio, s.MsgsPerSec)
	}
	if s.FramesPerDgram != 2 || s.BytesPerDelivery != 100 {
		t.Fatalf("frames/datagram %v, bytes/delivery %v, want 2 and 100", s.FramesPerDgram, s.BytesPerDelivery)
	}
	if s.GoroutinesJoined != 40 || s.GoroutinesFinal != 43 || s.GoroutinesMax != 12 || s.GoroutineGrowth != 1 {
		t.Fatalf("goroutines joined/final/max/growth = %d/%d/%d/%d, want 40/43/12/1",
			s.GoroutinesJoined, s.GoroutinesFinal, s.GoroutinesMax, s.GoroutineGrowth)
	}
	if s.PeakRSSMax != 6<<20 || s.PeakRSSTotal != 20<<20 || s.ProfileWants != 2 {
		t.Fatalf("rss max/total %d/%d, wants %d", s.PeakRSSMax, s.PeakRSSTotal, s.ProfileWants)
	}
	if s.OfflineNodes != 1 || s.CatchUpSec != 4 || s.CatchUpDeliveries != 4 {
		t.Fatalf("offline %d, catch-up %vs with %d deliveries", s.OfflineNodes, s.CatchUpSec, s.CatchUpDeliveries)
	}
	if s.DeliveryP50Sec != 0 || len(s.AlertsFired) != 0 {
		t.Fatalf("latency %v and alerts %v from a monitor that saw no scrape", s.DeliveryP50Sec, s.AlertsFired)
	}

	var out bytes.Buffer
	printReport(&out, s, pl, d, mon)
	for _, want := range []string{"published=14 expected=38 delivered=37 ratio=0.9737", "vitis_store_catchup_deliveries_total", "catch-up: 1 offline"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
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
	bin := harness.BuildT(t, t.TempDir())
	cfg := clusterConfig{
		nodes: 16, topics: 6, subsPerNode: 3, alpha: 1.0, totalRate: 12,
		publishFor: 8 * time.Second, settle: 3 * time.Second,
		periodMs: 200, seed: 42,
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
	bin := harness.BuildT(t, t.TempDir())
	cfg := clusterConfig{
		nodes: 16, topics: 6, subsPerNode: 3, alpha: 1.0, totalRate: 12,
		publishFor: 8 * time.Second, settle: 3 * time.Second,
		periodMs: 200, seed: 42,
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
