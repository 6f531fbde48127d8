package chaos

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"vitis/internal/core"
	"vitis/internal/idspace"
	"vitis/internal/simnet"
	"vitis/internal/telemetry"
	"vitis/internal/transport"
)

// TestQuietHeartbeatsRepairUnderLoss: under quiet heartbeats a node sends a
// changed profile in full once, and every later heartbeat carries only its
// digest, so at 20 % loss about one neighbour in five misses the full copy
// and must get it back through a Want. Six nodes on a Loopback bus (every
// frame through the codec) each change their subscriptions twice; each of
// the 60 (node, neighbour) pairs must converge, and four in five within 5
// heartbeat periods. A pair misses that mark with probability ≈ 0.02
// (the full heartbeat and then three repair round trips lost), so the
// bounds leave no room for a repair path that does not work.
func TestQuietHeartbeatsRepairUnderLoss(t *testing.T) {
	const (
		nodes   = 6
		rounds  = 2
		period  = 50 * simnet.Millisecond
		warmup  = 30 * period
		spacing = 20 * period // between rounds of changes
	)
	ctl := New(Config{Seed: 7, Drop: 0.2})
	defer ctl.Close()
	bus := transport.NewLoopback()
	params := core.Params{
		GossipPeriod:        period,
		HeartbeatPeriod:     period,
		NetworkSizeEstimate: nodes,
		Recovery:            true,
	}
	ids := make([]core.NodeID, nodes)
	for i := range ids {
		ids[i] = idspace.HashUint64(uint64(i))
	}
	hosts := make([]*transport.Host, nodes)
	cores := make([]*core.Node, nodes)
	mets := make([]*telemetry.NodeMetrics, nodes)
	for i := range cores {
		mets[i] = telemetry.NewNodeMetrics(telemetry.NewRegistry())
		hosts[i] = transport.NewHost(simnet.NewEngine(int64(200+i)), ctl.Wrap(bus.Endpoint()), nil)
		cores[i] = core.NewNode(hosts[i], ids[i], params, core.Hooks{Metrics: mets[i]})
		cores[i].Subscribe(core.Topic("news"))
	}
	for i, nd := range cores {
		var boot []core.NodeID
		for j, id := range ids {
			if j != i {
				boot = append(boot, id)
			}
		}
		nd.Join(boot)
	}

	// Change c is node c%nodes subscribing to a topic of its own, half a
	// period off the heartbeat phase. Every node checks once per period
	// whether it holds each changed profile yet; all of it runs on the
	// nodes' own engines, scheduled before the drivers start.
	changes := nodes * rounds
	changeAt := func(c int) simnet.Time {
		return warmup + simnet.Time(c/nodes)*spacing + period/2 + simnet.Time(c%nodes)
	}
	topic := func(c int) core.TopicID { return core.Topic(fmt.Sprintf("fresh-%d", c)) }
	var mu sync.Mutex
	held := make([][]simnet.Time, changes) // [change][node]: time from change to first seen, 0 = never
	for c := range held {
		held[c] = make([]simnet.Time, nodes)
		nd := cores[c%nodes]
		hosts[c%nodes].Engine().ScheduleAt(changeAt(c), func() { nd.Subscribe(topic(c)) })
	}
	for i := range cores {
		i, eng := i, hosts[i].Engine()
		eng.Every(period, func() bool {
			for c := 0; c < changes; c++ {
				since := eng.Now() - changeAt(c)
				if c%nodes == i || since <= 0 {
					continue
				}
				p, _ := cores[i].KnownProfile(ids[c%nodes])
				mu.Lock()
				if held[c][i] == 0 && p != nil && p.Subscribed(topic(c)) {
					held[c][i] = since
				}
				mu.Unlock()
			}
			return true
		})
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, h := range hosts {
		go transport.NewDriver(h).Run(ctx)
	}
	wants := func() (s uint64) {
		for _, m := range mets {
			s += m.ProfileWants.Value()
		}
		return s
	}
	time.Sleep(time.Duration(warmup) * time.Millisecond)
	wantsBefore := wants()
	time.Sleep(time.Duration(rounds*spacing) * time.Millisecond)
	repairs := wants() - wantsBefore

	mu.Lock()
	defer mu.Unlock()
	pairs, quick := 0, 0
	for c := range held {
		for i, since := range held[c] {
			if i == c%nodes {
				continue
			}
			pairs++
			switch {
			case since == 0:
				t.Errorf("node %d never received node %d's profile with %d subscriptions more", i, c%nodes, c/nodes+1)
			case since <= 5*period:
				quick++
			}
		}
	}
	t.Logf("%d of %d pairs converged within 5 periods; %d Wants during the changes", quick, pairs, repairs)
	if quick*5 < pairs*4 {
		t.Errorf("only %d of %d pairs converged within 5 heartbeat periods, want four in five", quick, pairs)
	}
	if repairs == 0 {
		t.Error("no Want was sent although loss must have eaten some full heartbeats")
	}
}
