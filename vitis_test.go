package vitis

import (
	"fmt"
	"testing"
	"time"
)

func buildCluster(t *testing.T, n int, topics []string, subsOf func(i int) []string) (*Cluster, []*Node) {
	t.Helper()
	c := NewCluster(Options{Seed: 7, ExpectedNodes: n})
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = c.AddNode(fmt.Sprintf("node-%d", i))
	}
	for i, nd := range nodes {
		for _, tp := range subsOf(i) {
			nd.Subscribe(tp, nil)
		}
	}
	_ = topics
	return c, nodes
}

func TestPublishReachesSubscribers(t *testing.T) {
	const n = 30
	c := NewCluster(Options{Seed: 1, ExpectedNodes: n})
	var got []string
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = c.AddNode(fmt.Sprintf("n%d", i))
	}
	for i, nd := range nodes {
		i := i
		if i%2 == 0 {
			nd.Subscribe("news", func(ev Event) {
				got = append(got, fmt.Sprintf("n%d", i))
			})
		}
	}
	c.Run(40 * time.Second)
	ev := nodes[2].Publish("news")
	if ev.Topic != "news" || ev.Publisher != "n2" {
		t.Errorf("event = %+v", ev)
	}
	c.Run(15 * time.Second)
	if len(got) != 15 {
		t.Errorf("delivered to %d of 15 subscribers", len(got))
	}
}

func TestHandlerReceivesMetadata(t *testing.T) {
	c := NewCluster(Options{Seed: 2, ExpectedNodes: 10})
	var events []Event
	a := c.AddNode("a")
	b := c.AddNode("b")
	b.Subscribe("x", func(ev Event) { events = append(events, ev) })
	a.Subscribe("x", nil)
	c.Run(30 * time.Second)
	a.Publish("x")
	c.Run(10 * time.Second)
	if len(events) != 1 {
		t.Fatalf("got %d events", len(events))
	}
	ev := events[0]
	if ev.Topic != "x" || ev.Publisher != "a" || ev.Hops < 1 {
		t.Errorf("event = %+v", ev)
	}
}

func TestDuplicateNodeNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c := NewCluster(Options{})
	c.AddNode("same")
	c.AddNode("same")
}

func TestUnsubscribeStopsHandler(t *testing.T) {
	c := NewCluster(Options{Seed: 3, ExpectedNodes: 16})
	count := 0
	nodes := make([]*Node, 16)
	for i := range nodes {
		nodes[i] = c.AddNode(fmt.Sprintf("n%d", i))
		nodes[i].Subscribe("t", nil)
	}
	watcher := nodes[5]
	watcher.Subscribe("t", func(Event) { count++ })
	c.Run(30 * time.Second)
	nodes[0].Publish("t")
	c.Run(10 * time.Second)
	if count == 0 {
		t.Fatal("watcher never received the first event")
	}
	first := count
	watcher.Unsubscribe("t")
	if watcher.Subscribed("t") {
		t.Error("still subscribed after Unsubscribe")
	}
	c.Run(10 * time.Second)
	nodes[0].Publish("t")
	c.Run(10 * time.Second)
	if count != first {
		t.Error("handler fired after unsubscribe")
	}
}

func TestLeaveAndSize(t *testing.T) {
	c := NewCluster(Options{Seed: 4, ExpectedNodes: 8})
	var nodes []*Node
	for i := 0; i < 8; i++ {
		nodes = append(nodes, c.AddNode(fmt.Sprintf("n%d", i)))
	}
	if c.Size() != 8 {
		t.Errorf("Size = %d", c.Size())
	}
	nodes[0].Leave()
	if nodes[0].Alive() {
		t.Error("node alive after Leave")
	}
	if c.Size() != 7 {
		t.Errorf("Size = %d after leave", c.Size())
	}
}

// TestSizeWithBootstrapService checks that Size counts only the cluster's
// own nodes when the bootstrap service shares their network.
func TestSizeWithBootstrapService(t *testing.T) {
	c := NewCluster(Options{Seed: 4, ExpectedNodes: 8, UseBootstrapService: true})
	a := c.AddNode("a")
	c.AddNode("b")
	if got := c.Size(); got != 2 {
		t.Errorf("Size = %d with two nodes, want 2", got)
	}
	a.Leave()
	if got := c.Size(); got != 1 {
		t.Errorf("Size = %d after one Leave, want 1", got)
	}
}

func TestNodeLookupAndNow(t *testing.T) {
	c := NewCluster(Options{Seed: 5})
	c.AddNode("x")
	if c.Node("x") == nil || c.Node("y") != nil {
		t.Error("Node lookup wrong")
	}
	if c.Node("x").Name() != "x" {
		t.Error("Name wrong")
	}
	c.Run(1500 * time.Millisecond)
	if c.Now() != 1500*time.Millisecond {
		t.Errorf("Now = %v", c.Now())
	}
}

func TestStatsAccumulate(t *testing.T) {
	c, nodes := buildCluster(t, 24, nil, func(i int) []string {
		if i < 12 {
			return []string{"a"}
		}
		return []string{"b"}
	})
	c.Run(35 * time.Second)
	nodes[0].Publish("a")
	nodes[12].Publish("b")
	c.Run(10 * time.Second)
	st := c.Stats()
	if st.Received == 0 {
		t.Fatal("no traffic recorded")
	}
	if r := st.OverheadRatio(); r < 0 || r > 1 {
		t.Errorf("overhead ratio %g", r)
	}
	if (Stats{}).OverheadRatio() != 0 {
		t.Error("idle overhead should be 0")
	}
}

func TestNeighborsNamed(t *testing.T) {
	c, nodes := buildCluster(t, 20, nil, func(i int) []string { return []string{"t"} })
	c.Run(30 * time.Second)
	nb := nodes[0].Neighbors()
	if len(nb) == 0 {
		t.Fatal("no neighbors after warmup")
	}
	for _, name := range nb {
		if c.Node(name) == nil {
			t.Errorf("neighbor %q not a cluster member", name)
		}
	}
}

func TestGatewayAndRendezvousExposed(t *testing.T) {
	c, nodes := buildCluster(t, 24, nil, func(i int) []string { return []string{"hot"} })
	c.Run(40 * time.Second)
	gateways, rendezvous := 0, 0
	for _, nd := range nodes {
		if nd.IsGateway("hot") {
			gateways++
		}
		if nd.IsRendezvous("hot") {
			rendezvous++
		}
	}
	if gateways == 0 {
		t.Error("no gateways visible through the facade")
	}
	if rendezvous == 0 {
		t.Error("no rendezvous visible through the facade")
	}
}

func TestSetRateEstimate(t *testing.T) {
	c := NewCluster(Options{Seed: 6})
	n := c.AddNode("r")
	n.SetRateEstimate(map[string]float64{"hot": 10, "cold": 0.1})
	n.SetRateEstimate(nil) // restore uniform; must not panic
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int, float64) {
		c, nodes := buildCluster(t, 20, nil, func(i int) []string { return []string{"d"} })
		delivered := 0
		nodes[3].Subscribe("d", func(Event) { delivered++ })
		c.Run(30 * time.Second)
		nodes[0].Publish("d")
		c.Run(10 * time.Second)
		return delivered, c.Stats().OverheadRatio()
	}
	d1, o1 := run()
	d2, o2 := run()
	if d1 != d2 || o1 != o2 {
		t.Errorf("nondeterministic: (%d,%g) vs (%d,%g)", d1, o1, d2, o2)
	}
}

func TestPublisherNeedNotSubscribe(t *testing.T) {
	c, nodes := buildCluster(t, 20, nil, func(i int) []string {
		if i > 0 {
			return []string{"only-others"}
		}
		return nil
	})
	got := 0
	nodes[1].Subscribe("only-others", func(Event) { got++ })
	c.Run(35 * time.Second)
	nodes[0].Publish("only-others")
	c.Run(15 * time.Second)
	if got == 0 {
		t.Error("event from non-subscriber publisher never arrived")
	}
}

func TestPublishDataDeliversPayloadFacade(t *testing.T) {
	c, nodes := buildCluster(t, 20, nil, func(i int) []string { return []string{"files"} })
	var payloads [][]byte
	nodes[7].OnData(func(ev Event) { payloads = append(payloads, ev.Data) })
	c.Run(35 * time.Second)
	want := []byte("the actual bytes")
	nodes[0].PublishData("files", want)
	c.Run(15 * time.Second)
	if len(payloads) != 1 {
		t.Fatalf("got %d payload deliveries", len(payloads))
	}
	if string(payloads[0]) != string(want) {
		t.Errorf("payload = %q", payloads[0])
	}
}

func TestPublishDataEventEcho(t *testing.T) {
	c := NewCluster(Options{Seed: 8})
	n := c.AddNode("solo")
	ev := n.PublishData("t", []byte("abc"))
	if ev.Topic != "t" || ev.Publisher != "solo" || string(ev.Data) != "abc" {
		t.Errorf("event = %+v", ev)
	}
}

func TestBootstrapServiceJoin(t *testing.T) {
	c := NewCluster(Options{Seed: 9, ExpectedNodes: 20, UseBootstrapService: true})
	var nodes []*Node
	delivered := 0
	for i := 0; i < 20; i++ {
		n := c.AddNode(fmt.Sprintf("bs-%02d", i))
		n.Subscribe("t", func(Event) { delivered++ })
		nodes = append(nodes, n)
		// Space joins out so bootstrap responses land before the next
		// join asks for peers.
		c.Run(500 * time.Millisecond)
	}
	c.Run(35 * time.Second)
	nodes[0].Publish("t")
	c.Run(15 * time.Second)
	if delivered != 20 {
		t.Errorf("delivered to %d of 20 via bootstrap-service join", delivered)
	}
}

func TestBootstrapServiceFirstNodeAlone(t *testing.T) {
	c := NewCluster(Options{Seed: 10, UseBootstrapService: true})
	n := c.AddNode("first")
	c.Run(5 * time.Second)
	if !n.Alive() {
		t.Error("first node failed to join with empty peer list")
	}
}

func TestTopicClustersFacade(t *testing.T) {
	c, nodes := buildCluster(t, 20, nil, func(i int) []string {
		if i < 10 {
			return []string{"clustered"}
		}
		return []string{"other"}
	})
	c.Run(35 * time.Second)
	clusters := c.TopicClusters("clustered")
	if len(clusters) == 0 {
		t.Fatal("no clusters reported")
	}
	total := 0
	for _, cl := range clusters {
		total += len(cl)
		for _, name := range cl {
			if !c.Node(name).Subscribed("clustered") {
				t.Errorf("cluster member %s not subscribed", name)
			}
		}
	}
	if total != 10 {
		t.Errorf("clusters cover %d of 10 subscribers", total)
	}
	_ = nodes
}
