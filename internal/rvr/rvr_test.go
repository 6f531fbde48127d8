package rvr

import (
	"testing"

	"vitis/internal/idspace"
	"vitis/internal/simnet"
)

type cluster struct {
	eng       *simnet.Engine
	net       *simnet.Network
	nodes     []*Node
	ids       []NodeID
	delivered map[EventID]map[NodeID]int
	relayRecv int
	totalRecv int
}

func newCluster(t *testing.T, n int, params Params, subs func(i int) []TopicID) *cluster {
	t.Helper()
	c := &cluster{
		eng:       simnet.NewEngine(17),
		delivered: make(map[EventID]map[NodeID]int),
	}
	c.net = simnet.NewNetwork(c.eng, simnet.UniformLatency{Min: 10, Max: 80})
	if params.NetworkSizeEstimate == 0 {
		params.NetworkSizeEstimate = n
	}
	hooks := Hooks{
		OnDeliver: func(node NodeID, topic TopicID, ev EventID, hops int) {
			m := c.delivered[ev]
			if m == nil {
				m = make(map[NodeID]int)
				c.delivered[ev] = m
			}
			m[node] = hops
		},
		OnNotification: func(node NodeID, topic TopicID, interested bool) {
			c.totalRecv++
			if !interested {
				c.relayRecv++
			}
		},
	}
	c.ids = make([]NodeID, n)
	for i := range c.ids {
		c.ids[i] = idspace.HashUint64(uint64(i))
	}
	c.nodes = make([]*Node, n)
	for i := range c.ids {
		nd := NewNode(c.net, c.ids[i], params, hooks)
		for _, tp := range subs(i) {
			nd.Subscribe(tp)
		}
		c.nodes[i] = nd
	}
	for i, nd := range c.nodes {
		var boot []NodeID
		for j := 1; j <= 3; j++ {
			boot = append(boot, c.ids[(i+j)%n])
		}
		nd.Join(boot)
	}
	return c
}

func (c *cluster) run(d simnet.Time) { c.eng.RunUntil(c.eng.Now() + d) }

func (c *cluster) subscribersOf(t TopicID) []*Node {
	var out []*Node
	for _, nd := range c.nodes {
		if nd.Alive() && nd.Subscribed(t) {
			out = append(out, nd)
		}
	}
	return out
}

func TestTreeFormsAndDelivers(t *testing.T) {
	tp := idspace.HashString("news")
	c := newCluster(t, 40, Params{}, func(i int) []TopicID {
		if i%3 == 0 {
			return []TopicID{tp}
		}
		return nil
	})
	c.run(40 * simnet.Second)

	// Every subscriber should be on the tree.
	for i, nd := range c.nodes {
		if nd.Subscribed(tp) && !nd.OnTree(tp) {
			t.Errorf("subscriber %d not on tree", i)
		}
	}
	// Exactly one rendezvous should exist in a converged ring.
	rendezvous := 0
	for _, nd := range c.nodes {
		if nd.IsRendezvous(tp) {
			rendezvous++
		}
	}
	if rendezvous != 1 {
		t.Errorf("%d rendezvous nodes, want 1", rendezvous)
	}

	pub := c.subscribersOf(tp)[0]
	ev := pub.Publish(tp)
	c.run(20 * simnet.Second)
	want := len(c.subscribersOf(tp))
	if got := len(c.delivered[ev]); got != want {
		t.Errorf("delivered to %d of %d subscribers", got, want)
	}
}

func TestPublisherOutsideTreeStillDelivers(t *testing.T) {
	tp := idspace.HashString("x")
	c := newCluster(t, 30, Params{}, func(i int) []TopicID {
		if i >= 10 {
			return []TopicID{tp}
		}
		return nil
	})
	c.run(40 * simnet.Second)
	pub := c.nodes[0] // not subscribed
	ev := pub.Publish(tp)
	c.run(20 * simnet.Second)
	want := len(c.subscribersOf(tp))
	if got := len(c.delivered[ev]); got != want {
		t.Errorf("delivered to %d of %d subscribers", got, want)
	}
}

func TestRelayTrafficExists(t *testing.T) {
	// RVR's defining cost: nodes not subscribed to a topic carry its
	// events.
	tp := idspace.HashString("heavy")
	c := newCluster(t, 40, Params{}, func(i int) []TopicID {
		if i < 8 {
			return []TopicID{tp}
		}
		return nil
	})
	c.run(40 * simnet.Second)
	for i := 0; i < 5; i++ {
		c.subscribersOf(tp)[i].Publish(tp)
		c.run(5 * simnet.Second)
	}
	c.run(10 * simnet.Second)
	if c.relayRecv == 0 {
		t.Error("expected uninterested nodes to relay events in RVR")
	}
}

func TestRoutingTableBounded(t *testing.T) {
	c := newCluster(t, 40, Params{RTSize: 10}, func(i int) []TopicID { return nil })
	c.run(30 * simnet.Second)
	for i, nd := range c.nodes {
		if got := len(nd.RoutingTable()); got > 10 {
			t.Errorf("node %d table size %d > 10", i, got)
		}
	}
}

func TestMultipleTopicsIndependentTrees(t *testing.T) {
	t1, t2 := idspace.HashString("t1"), idspace.HashString("t2")
	c := newCluster(t, 36, Params{}, func(i int) []TopicID {
		switch i % 3 {
		case 0:
			return []TopicID{t1}
		case 1:
			return []TopicID{t2}
		default:
			return []TopicID{t1, t2}
		}
	})
	c.run(40 * simnet.Second)
	ev1 := c.subscribersOf(t1)[0].Publish(t1)
	ev2 := c.subscribersOf(t2)[0].Publish(t2)
	c.run(20 * simnet.Second)
	if got, want := len(c.delivered[ev1]), len(c.subscribersOf(t1)); got != want {
		t.Errorf("t1: %d of %d", got, want)
	}
	if got, want := len(c.delivered[ev2]), len(c.subscribersOf(t2)); got != want {
		t.Errorf("t2: %d of %d", got, want)
	}
}

func TestChurnRecovery(t *testing.T) {
	tp := idspace.HashString("churn")
	c := newCluster(t, 36, Params{}, func(i int) []TopicID { return []TopicID{tp} })
	c.run(35 * simnet.Second)
	for i := 0; i < 9; i++ {
		c.nodes[i*4].Leave()
	}
	c.run(25 * simnet.Second)
	var pub *Node
	for _, nd := range c.nodes {
		if nd.Alive() {
			pub = nd
			break
		}
	}
	ev := pub.Publish(tp)
	c.run(20 * simnet.Second)
	want := len(c.subscribersOf(tp))
	if got := len(c.delivered[ev]); got != want {
		t.Errorf("after churn: delivered to %d of %d", got, want)
	}
}

func TestUnsubscribeLeavesTree(t *testing.T) {
	tp := idspace.HashString("bye")
	c := newCluster(t, 24, Params{}, func(i int) []TopicID { return []TopicID{tp} })
	c.run(30 * simnet.Second)
	q := c.nodes[7]
	q.Unsubscribe(tp)
	c.run(15 * simnet.Second)
	ev := c.nodes[0].Publish(tp)
	c.run(15 * simnet.Second)
	if _, got := c.delivered[ev][q.ID()]; got {
		t.Error("unsubscribed node counted as delivery")
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.WithDefaults()
	if p.RTSize != 15 || p.NetworkSizeEstimate != 10000 || treeLease != 4*simnet.Second {
		t.Errorf("defaults %+v", p)
	}
}
