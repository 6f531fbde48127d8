package core

import (
	"testing"

	"vitis/internal/idspace"
	"vitis/internal/ring"
	"vitis/internal/simnet"
)

func TestRelayPathsMeetAtGlobalClosest(t *testing.T) {
	tp := Topic("meet")
	c := newCluster(t, 30, Params{}, func(i int) []TopicID {
		if i%2 == 0 {
			return []TopicID{tp}
		}
		return []TopicID{Topic("other")}
	})
	c.run(40 * simnet.Second)

	// The rendezvous must be the node whose id is closest to hash(tp)
	// among all alive nodes.
	var closest *Node
	for _, nd := range c.nodes {
		if closest == nil || idspace.Closer(nd.ID(), closest.ID(), tp) {
			closest = nd
		}
	}
	if !closest.IsRendezvous(tp) {
		t.Errorf("globally closest node %v does not hold rendezvous state", closest.ID())
	}
	// And no other node believes it is the rendezvous in a converged ring.
	for _, nd := range c.nodes {
		if nd != closest && nd.IsRendezvous(tp) {
			t.Errorf("node %v also claims rendezvous", nd.ID())
		}
	}
}

func TestGatewaysHoldRelayState(t *testing.T) {
	tp := Topic("gw-relay")
	c := newCluster(t, 24, Params{}, func(i int) []TopicID { return []TopicID{tp} })
	c.run(40 * simnet.Second)
	for _, nd := range c.nodes {
		if nd.IsGateway(tp) && !nd.IsRelay(tp) {
			t.Errorf("gateway %v holds no relay state", nd.ID())
		}
	}
}

func TestRelayLeaseExpiresWithoutRefresh(t *testing.T) {
	// A node that stops being refreshed (its gateway left) must drop its
	// relay state after the lease.
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(5))
	n := NewNode(net, 500, Params{}, Hooks{})
	n.Join(nil)
	tp := Topic("lease")
	n.handleRelay(777, RelayMsg{Topic: tp, Origin: 777, TTL: 4})
	if !n.IsRelay(tp) {
		t.Fatal("no relay state after RelayMsg")
	}
	// Advance past the lease without any refresh; expireState runs on the
	// heartbeat.
	eng.RunUntil(10 * simnet.Second)
	if n.IsRelay(tp) {
		t.Error("relay state survived lease expiry")
	}
}

func TestRelayTTLStopsForwarding(t *testing.T) {
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(5))
	n := NewNode(net, 500, Params{}, Hooks{})
	n.Join(nil)
	forwarded := false
	net.Attach(900, simnet.HandlerFunc(func(from NodeID, msg simnet.Message) {
		if _, ok := msg.(RelayMsg); ok {
			forwarded = true
		}
	}))
	// Give the node a neighbor closer to the topic than itself so it
	// would forward if TTL allowed.
	tp := Topic("ttl")
	n.handleRelay(901, RelayMsg{Topic: tp, Origin: 901, TTL: 0})
	eng.RunUntil(simnet.Second)
	if forwarded {
		t.Error("TTL 0 message was forwarded")
	}
	// The sender must NOT be registered as a child: the path never reached
	// the rendezvous node, so accepting the child would graft a dead-end
	// branch that silently swallows events. The failure is counted instead.
	if n.IsRelay(tp) {
		t.Error("TTL-exhausted lookup left relay state behind")
	}
	if got := n.RelayTTLExhausted(); got != 1 {
		t.Errorf("RelayTTLExhausted = %d, want 1", got)
	}
	// A live lookup arriving afterwards still registers normally.
	n.handleRelay(902, RelayMsg{Topic: tp, Origin: 902, TTL: 4})
	if !n.IsRelay(tp) {
		t.Error("live lookup failed to register child")
	}
	if got := n.RelayTTLExhausted(); got != 1 {
		t.Errorf("RelayTTLExhausted moved to %d after live lookup", got)
	}
}

func TestClosestNeighborToGreedyStep(t *testing.T) {
	c := newCluster(t, 32, Params{}, func(i int) []TopicID { return []TopicID{Topic("g")} })
	c.run(35 * simnet.Second)
	target := Topic("some-target")
	for _, nd := range c.nodes {
		next, ok := ring.NextHop(nd.ID(), nd.xchg.RTRef(), target)
		if !ok {
			continue // nd believes it is closest
		}
		if !idspace.Closer(next, nd.ID(), target) {
			t.Errorf("greedy step from %v to %v is not strictly closer to %v", nd.ID(), next, target)
		}
	}
}

func TestGreedyLookupTerminates(t *testing.T) {
	// Follow greedy next hops node-to-node: distances strictly
	// shrink, so the walk must terminate at the global minimum.
	c := newCluster(t, 32, Params{}, func(i int) []TopicID { return []TopicID{Topic("walk")} })
	c.run(35 * simnet.Second)
	byID := map[NodeID]*Node{}
	for _, nd := range c.nodes {
		byID[nd.ID()] = nd
	}
	target := Topic("lookup-target")
	cur := c.nodes[0]
	for hops := 0; ; hops++ {
		if hops > 64 {
			t.Fatal("greedy lookup did not terminate")
		}
		next, ok := ring.NextHop(cur.ID(), cur.xchg.RTRef(), target)
		if !ok {
			break
		}
		cur = byID[next]
	}
	// Terminal node must be the global closest (ring converged).
	for _, nd := range c.nodes {
		if idspace.Closer(nd.ID(), cur.ID(), target) {
			t.Errorf("lookup ended at %v but %v is closer to target", cur.ID(), nd.ID())
		}
	}
}

func TestNumberOfGatewaysBoundedByClusterStructure(t *testing.T) {
	// With everyone in one topic and d=5, gateway count should be far
	// below the population (one per d-neighborhood, not one per node).
	tp := Topic("few-gw")
	c := newCluster(t, 40, Params{}, func(i int) []TopicID { return []TopicID{tp} })
	c.run(45 * simnet.Second)
	gws := 0
	for _, nd := range c.nodes {
		if nd.IsGateway(tp) {
			gws++
		}
	}
	if gws == 0 {
		t.Fatal("no gateways at all")
	}
	if gws > 20 {
		t.Errorf("%d of 40 nodes are gateways; election failed to concentrate", gws)
	}
}

func TestUnsubscribedNodeDropsProposal(t *testing.T) {
	tp := Topic("drop")
	c := newCluster(t, 16, Params{}, func(i int) []TopicID { return []TopicID{tp} })
	c.run(30 * simnet.Second)
	nd := c.nodes[4]
	if _, ok := nd.ProposalFor(tp); !ok {
		t.Fatal("no proposal before unsubscribe")
	}
	nd.Unsubscribe(tp)
	if _, ok := nd.ProposalFor(tp); ok {
		t.Error("proposal survived unsubscribe")
	}
}

func TestGatewayFailureReelection(t *testing.T) {
	// §III-B: "Should a gateway node fail ... its immediate neighbors
	// would detect the failure ... and stop proposing it as a gateway.
	// Therefore, in the proceeding rounds, those nodes select a different
	// gateway."
	tp := Topic("gw-fail")
	c := newCluster(t, 30, Params{}, func(i int) []TopicID {
		if i%2 == 0 {
			return []TopicID{tp}
		}
		return []TopicID{Topic("bg")}
	})
	c.run(40 * simnet.Second)

	// Kill every current gateway of the topic at once.
	killed := 0
	for _, nd := range c.nodes {
		if nd.Alive() && nd.IsGateway(tp) {
			nd.Leave()
			killed++
		}
	}
	if killed == 0 {
		t.Fatal("no gateways to kill")
	}
	// Re-election + relay rebuild: a few failure-detection periods.
	c.run(25 * simnet.Second)

	newGateways := 0
	for _, nd := range c.nodes {
		if nd.Alive() && nd.IsGateway(tp) {
			newGateways++
		}
	}
	if newGateways == 0 {
		t.Fatal("no new gateways elected after failure")
	}
	ev := c.subscribersOf(tp)[0].Publish(tp)
	c.run(20 * simnet.Second)
	want := len(c.subscribersOf(tp))
	if got := len(c.delivered[ev]); got != want {
		t.Errorf("after gateway failure: delivered to %d of %d", got, want)
	}
}

func TestRendezvousFailureRecovery(t *testing.T) {
	// §III-D: "If the node is a relay node or rendezvous node, the
	// proceeding lookups by their neighbors on the relay path, will
	// return a substitute node."
	tp := Topic("rv-fail")
	c := newCluster(t, 30, Params{}, func(i int) []TopicID {
		if i%2 == 1 {
			return []TopicID{tp}
		}
		return []TopicID{Topic("bg2")}
	})
	c.run(40 * simnet.Second)

	killed := 0
	for _, nd := range c.nodes {
		if nd.Alive() && nd.IsRendezvous(tp) {
			nd.Leave()
			killed++
		}
	}
	if killed == 0 {
		t.Fatal("no rendezvous to kill")
	}
	c.run(25 * simnet.Second)

	// A substitute rendezvous must exist and delivery must still work.
	substitutes := 0
	for _, nd := range c.nodes {
		if nd.Alive() && nd.IsRendezvous(tp) {
			substitutes++
		}
	}
	if substitutes == 0 {
		t.Error("no substitute rendezvous emerged")
	}
	ev := c.subscribersOf(tp)[0].Publish(tp)
	c.run(20 * simnet.Second)
	want := len(c.subscribersOf(tp))
	if got := len(c.delivered[ev]); got != want {
		t.Errorf("after rendezvous failure: delivered to %d of %d", got, want)
	}
}

func TestRoutingTableFillsToBound(t *testing.T) {
	tp := Topic("full")
	c := newCluster(t, 40, Params{}, func(i int) []TopicID { return []TopicID{tp} })
	c.run(40 * simnet.Second)
	for i, nd := range c.nodes {
		if got := len(nd.RoutingTable()); got != 15 {
			t.Errorf("node %d table has %d entries, want 15", i, got)
		}
	}
}
