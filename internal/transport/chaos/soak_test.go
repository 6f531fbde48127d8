package chaos

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vitis/internal/core"
	"vitis/internal/deploy"
	"vitis/internal/idspace"
	"vitis/internal/simnet"
	"vitis/internal/telemetry"
	"vitis/internal/transport"
)

// deployCluster builds one deployed node per config on a chaos-wrapped
// endpoint of bus, node i with id HashUint64(i) on hosts[i] with engine seed
// seed+i, and a bootstrap node on a plain endpoint as the last host. Each
// config's Self, Bootstrap and Period are filled in.
func deployCluster(ctl *Controller, bus *transport.Loopback, seed int64, period simnet.Time, cfgs []deploy.Config) ([]*transport.Host, []*deploy.Node) {
	const bsID = simnet.NodeID(1)
	hosts := make([]*transport.Host, len(cfgs), len(cfgs)+1)
	nodes := make([]*deploy.Node, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Self, cfg.Bootstrap, cfg.Period = idspace.HashUint64(uint64(i)), bsID, period
		hosts[i] = transport.NewHost(simnet.NewEngine(seed+int64(i)), ctl.Wrap(bus.Endpoint()), nil)
		nodes[i] = deploy.New(hosts[i], cfg)
	}
	bs := transport.NewHost(simnet.NewEngine(seed-1), bus.Endpoint(), nil)
	deploy.Bootstrap(bs, bsID, period)
	return append(hosts, bs), nodes
}

// runCluster drives every host until ctx ends and returns once every node
// has joined.
func runCluster(ctx context.Context, t *testing.T, hosts []*transport.Host, nodes []*deploy.Node) {
	t.Helper()
	for _, h := range hosts {
		go transport.NewDriver(h).Run(ctx)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, nd := range nodes {
		for !nd.Joined() {
			if time.Now().After(deadline) {
				t.Fatalf("node %016x never joined", uint64(nd.ID()))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestChaosSoak boots a real Loopback cluster under sustained 20% message
// loss, cuts one subscriber off behind a named partition, heals it, and
// requires full convergence: every subscriber ends up having delivered
// every event published, including those flooded while the partition was
// up. Every node is the deployed node cmd/vitis-node runs, joined through a
// bootstrap node outside the chaos, so the test exercises the whole
// recovery stack end to end — suspicion and eviction, stash-and-release
// partitions, the cut node's isolation and rejoin through the bootstrap
// node, lost-peer recovery, replay, and the anti-entropy sweep that mops
// up plain loss. The partition lasts 10 seconds (2.5 in -short); the test
// runs with -race in CI.
func TestChaosSoak(t *testing.T) {
	const nodes = 4
	partitionFor := 10 * time.Second
	if testing.Short() {
		partitionFor = 2500 * time.Millisecond
	}

	ctl := New(Config{Seed: 11, Drop: 0.2, StashCap: 256})
	defer ctl.Close()
	bus := transport.NewLoopback()
	tp := core.Topic("news")

	// delivered tracks, per node index, the set of events its OnDeliver
	// hook has fired for. Hooks run on each node's driver goroutine.
	var mu sync.Mutex
	delivered := make([]map[core.EventID]bool, nodes)
	for i := range delivered {
		delivered[i] = make(map[core.EventID]bool)
	}
	var published []core.EventID

	cfgs := make([]deploy.Config, nodes)
	for i := range cfgs {
		i := i
		cfgs[i] = deploy.Config{
			Subscribe: []core.TopicID{tp},
			Registry:  telemetry.NewRegistry(),
			OnDeliver: func(_ core.NodeID, _ core.TopicID, ev core.EventID, _ int) {
				mu.Lock()
				delivered[i][ev] = true
				mu.Unlock()
			},
		}
	}
	hosts, nds := deployCluster(ctl, bus, 100, 50*simnet.Millisecond, cfgs)

	// Node 0 publishes every 100ms until told to stop; the event list is
	// the convergence target.
	var stopPublishing atomic.Bool
	hosts[0].Engine().Every(100*simnet.Millisecond, func() bool {
		if stopPublishing.Load() || !nds[0].Joined() {
			return true
		}
		ev := nds[0].Publish(tp)
		mu.Lock()
		published = append(published, ev)
		mu.Unlock()
		return true
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runCluster(ctx, t, hosts, nds)

	// Warm up, cut node 3 off, hold the partition, heal, publish a little
	// longer, then freeze the target set.
	time.Sleep(1500 * time.Millisecond)
	ctl.Partition("cut", nds[3].ID())
	time.Sleep(partitionFor)
	ctl.Heal("cut")
	time.Sleep(1 * time.Second)
	stopPublishing.Store(true)

	mu.Lock()
	target := append([]core.EventID(nil), published...)
	mu.Unlock()
	if len(target) == 0 {
		t.Fatal("publisher never ran")
	}

	// Convergence: every subscriber must deliver every published event —
	// the ones lost to the partition arrive via replay, the ones lost to
	// plain 20% drop via forwarding redundancy and anti-entropy sweeps.
	deadline := time.Now().Add(60 * time.Second)
	missing := func(i int) int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, ev := range target {
			if !delivered[i][ev] {
				n++
			}
		}
		return n
	}
	for {
		worst := 0
		for i := 1; i < nodes; i++ {
			if m := missing(i); m > worst {
				worst = m
			}
		}
		if worst == 0 {
			break
		}
		if time.Now().After(deadline) {
			for i := 1; i < nodes; i++ {
				t.Logf("node %d missing %d of %d events", i, missing(i), len(target))
			}
			t.Fatal("cluster did not converge to full delivery after heal")
		}
		time.Sleep(100 * time.Millisecond)
	}
	cancel()

	// The recovery machinery must actually have fired, consistent with the
	// injected faults: heartbeats were missed (suspicion), the cut node was
	// recognized on return (recovery), and replays flowed both on recovery
	// and from the anti-entropy sweep.
	sum := func(f func(m *telemetry.NodeMetrics) uint64) uint64 {
		var s uint64
		for _, nd := range nds {
			s += f(nd.Metrics())
		}
		return s
	}
	// The failure detector's activity, logged so runs of different
	// heartbeat designs can be compared on the same seed.
	suspected := sum(func(m *telemetry.NodeMetrics) uint64 { return m.NeighborsSuspected.Value() })
	t.Logf("neighbors suspected %d, evicted %d", suspected,
		sum(func(m *telemetry.NodeMetrics) uint64 { return m.NeighborsEvicted.Value() }))
	if nds[3].Metrics().Rejoins.Value() == 0 {
		t.Error("the cut node never rejoined through the bootstrap node")
	}
	if suspected == 0 {
		t.Error("no neighbor was ever suspected despite a partition")
	}
	if v := sum(func(m *telemetry.NodeMetrics) uint64 { return m.NeighborsRecovered.Value() }); v == 0 {
		t.Error("no peer recovery was detected after the heal")
	}
	if v := sum(func(m *telemetry.NodeMetrics) uint64 { return m.ReplayRequests.Value() }); v == 0 {
		t.Error("no replay was ever requested")
	}
	if v := sum(func(m *telemetry.NodeMetrics) uint64 { return m.ReplayServed.Value() }); v == 0 {
		t.Error("no replay was ever served")
	}
	if v := sum(func(m *telemetry.NodeMetrics) uint64 { return m.Duplicates.Value() }); v == 0 {
		t.Error("no duplicate was ever suppressed, yet replay redundancy ran")
	}

	cm := ctl.Metrics()
	if cm.Dropped.Value() == 0 || cm.Stashed.Value() == 0 || cm.Released.Value() == 0 {
		t.Errorf("chaos counters implausible: dropped=%d stashed=%d released=%d",
			cm.Dropped.Value(), cm.Stashed.Value(), cm.Released.Value())
	}
	// The observed loss must track the configured 20% (released stash
	// traffic bypasses the draw, so allow slack).
	carried := float64(bus.Frames())
	dropped := float64(cm.Dropped.Value())
	if ratio := dropped / (dropped + carried); ratio < 0.10 || ratio > 0.30 {
		t.Errorf("observed drop ratio %.3f, want ≈0.2", ratio)
	}
}
