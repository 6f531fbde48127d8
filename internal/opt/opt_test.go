package opt

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
}

func newCluster(t *testing.T, n int, params Params, subs func(i int) []TopicID) *cluster {
	t.Helper()
	c := &cluster{
		eng:       simnet.NewEngine(23),
		delivered: make(map[EventID]map[NodeID]int),
	}
	c.net = simnet.NewNetwork(c.eng, simnet.UniformLatency{Min: 10, Max: 80})
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

func TestUnboundedDeliversToAll(t *testing.T) {
	tp := idspace.HashString("a")
	c := newCluster(t, 30, Params{}, func(i int) []TopicID {
		if i%2 == 0 {
			return []TopicID{tp}
		}
		return []TopicID{idspace.HashString("b")}
	})
	c.run(40 * simnet.Second)
	ev := c.subscribersOf(tp)[0].Publish(tp)
	c.run(20 * simnet.Second)
	want := len(c.subscribersOf(tp))
	if got := len(c.delivered[ev]); got != want {
		t.Errorf("delivered to %d of %d", got, want)
	}
}

func TestZeroRelayTraffic(t *testing.T) {
	t1, t2 := idspace.HashString("t1"), idspace.HashString("t2")
	c := newCluster(t, 30, Params{}, func(i int) []TopicID {
		if i%2 == 0 {
			return []TopicID{t1}
		}
		return []TopicID{t2}
	})
	c.run(40 * simnet.Second)
	c.subscribersOf(t1)[0].Publish(t1)
	c.subscribersOf(t2)[0].Publish(t2)
	c.run(20 * simnet.Second)
	if c.relayRecv != 0 {
		t.Errorf("OPT produced %d uninterested receipts; must be zero", c.relayRecv)
	}
}

func TestBoundedDegreeRespected(t *testing.T) {
	topics := make([]TopicID, 12)
	for i := range topics {
		topics[i] = idspace.HashUint64(uint64(1000 + i))
	}
	c := newCluster(t, 40, Params{MaxDegree: 5}, func(i int) []TopicID {
		// Each node subscribes to 6 topics: more than its degree can
		// fully cover with distinct single-topic neighbors.
		out := make([]TopicID, 6)
		for j := 0; j < 6; j++ {
			out[j] = topics[(i+j)%12]
		}
		return out
	})
	c.run(40 * simnet.Second)
	for i, nd := range c.nodes {
		if d := nd.Degree(); d > 5 {
			t.Errorf("node %d degree %d exceeds bound 5", i, d)
		}
	}
}

func TestBoundedDegreeMayMissSubscribers(t *testing.T) {
	// With a tiny degree bound and many scattered topics, per-topic
	// overlays fragment and the hit ratio drops below 1 — the effect
	// behind Fig. 10(a).
	topics := make([]TopicID, 30)
	for i := range topics {
		topics[i] = idspace.HashUint64(uint64(2000 + i))
	}
	c := newCluster(t, 60, Params{MaxDegree: 2}, func(i int) []TopicID {
		out := make([]TopicID, 5)
		for j := 0; j < 5; j++ {
			out[j] = topics[(i*3+j*7)%30]
		}
		return out
	})
	c.run(40 * simnet.Second)

	missed := 0
	published := 0
	for k := 0; k < 10; k++ {
		tp := topics[k*3]
		subsOf := c.subscribersOf(tp)
		if len(subsOf) < 2 {
			continue
		}
		ev := subsOf[0].Publish(tp)
		c.run(10 * simnet.Second)
		published++
		if len(c.delivered[ev]) < len(subsOf) {
			missed++
		}
	}
	if published == 0 {
		t.Skip("no publishable topics in this configuration")
	}
	if missed == 0 {
		t.Log("bounded OPT delivered everything; acceptable but unexpected at degree 2")
	}
}

func TestUnboundedDegreeGrowsWithSubscriptions(t *testing.T) {
	// Nodes with many topics need more neighbors for K-coverage.
	topics := make([]TopicID, 40)
	for i := range topics {
		topics[i] = idspace.HashUint64(uint64(3000 + i))
	}
	c := newCluster(t, 50, Params{}, func(i int) []TopicID {
		if i == 0 {
			return topics // node 0 subscribes to everything
		}
		return []TopicID{topics[i%40]}
	})
	c.run(50 * simnet.Second)
	big := c.nodes[0].Degree()
	var sum int
	for _, nd := range c.nodes[1:] {
		sum += nd.Degree()
	}
	avg := float64(sum) / float64(len(c.nodes)-1)
	if float64(big) < 2*avg {
		t.Errorf("heavy subscriber degree %d not larger than 2x average %.1f", big, avg)
	}
}

func TestChurnSurvivors(t *testing.T) {
	tp := idspace.HashString("c")
	c := newCluster(t, 30, Params{}, func(i int) []TopicID { return []TopicID{tp} })
	c.run(35 * simnet.Second)
	for i := 0; i < 7; i++ {
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
	c.run(15 * simnet.Second)
	want := len(c.subscribersOf(tp))
	if got := len(c.delivered[ev]); got != want {
		t.Errorf("after churn: %d of %d", got, want)
	}
}

func TestParamsDefaults(t *testing.T) {
	if (Params{}).Bounded() {
		t.Error("the zero Params should be unbounded")
	}
	if !(Params{MaxDegree: 5}).Bounded() {
		t.Error("MaxDegree 5 should be bounded")
	}
}

func TestContainsTopic(t *testing.T) {
	subs := []TopicID{10, 20, 30}
	if !containsTopic(subs, 20) || containsTopic(subs, 25) {
		t.Error("containsTopic wrong")
	}
	if containsTopic(nil, 1) {
		t.Error("empty list contains nothing")
	}
}
