package core

import (
	"testing"

	"vitis/internal/idspace"
	"vitis/internal/simnet"
)

// TestPullRetriesAfterLoss: a PullReq that gets no answer must be resent by
// the heartbeat, and the payload must still arrive through the retry.
func TestPullRetriesAfterLoss(t *testing.T) {
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(5))
	var got []byte
	n := NewNode(net, 100, Params{}, Hooks{
		OnPayload: func(_ NodeID, _ EventID, p []byte) { got = p },
	})
	tp := Topic("loss")
	n.Subscribe(tp)
	n.Join(nil)

	reqs := 0
	net.Attach(200, simnet.HandlerFunc(func(from NodeID, msg simnet.Message) {
		req, ok := msg.(PullReq)
		if !ok {
			return
		}
		reqs++
		if reqs == 1 {
			return // swallow the first request: simulated loss
		}
		net.Send(200, from, PullResp{Event: req.Event, Payload: []byte("recovered")})
	}))

	ev := EventID{Publisher: 200, Seq: 1}
	n.handleNotification(200, Notification{Topic: tp, Event: ev, Hops: 1, HasData: true})
	if n.PendingPulls() != 1 {
		t.Fatalf("PendingPulls = %d after notification, want 1", n.PendingPulls())
	}

	// One retry period plus heartbeat phase jitter is well under 10s.
	eng.RunUntil(10 * simnet.Second)

	if reqs < 2 {
		t.Fatalf("peer saw %d PullReqs, want a retry", reqs)
	}
	if string(got) != "recovered" {
		t.Fatalf("payload = %q, want %q", got, "recovered")
	}
	if n.PendingPulls() != 0 {
		t.Errorf("PendingPulls = %d after completion", n.PendingPulls())
	}
	if !n.HasPayload(ev) {
		t.Error("payload not cached after retried pull")
	}
}

// TestPullGivesUpAfterMaxAttempts: a peer that never answers must not pin
// pull state forever — the pull is abandoned after pullMaxAttempts sends.
func TestPullGivesUpAfterMaxAttempts(t *testing.T) {
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(5))
	n := NewNode(net, 100, Params{}, Hooks{})
	tp := Topic("dead-peer")
	n.Subscribe(tp)
	n.Join(nil)

	reqs := 0
	net.Attach(200, simnet.HandlerFunc(func(NodeID, simnet.Message) { reqs++ }))

	ev := EventID{Publisher: 200, Seq: 7}
	n.handleNotification(200, Notification{Topic: tp, Event: ev, Hops: 1, HasData: true})

	// 4 attempts x 1.5s retry period < 15s even with heartbeat phase.
	eng.RunUntil(15 * simnet.Second)

	if reqs != pullMaxAttempts {
		t.Errorf("peer saw %d PullReqs, want exactly pullMaxAttempts = %d", reqs, pullMaxAttempts)
	}
	if n.PendingPulls() != 0 {
		t.Errorf("PendingPulls = %d, abandoned pull still tracked", n.PendingPulls())
	}
	if n.PullBookkeepingSize() != 0 {
		t.Errorf("PullBookkeepingSize = %d, want 0 after give-up", n.PullBookkeepingSize())
	}
}

// lossyCluster is the newCluster harness on a message-dropping network, its
// nodes sending each pull at most pullAttempts times.
func lossyCluster(t *testing.T, n int, drop float64, pullAttempts int, subs func(i int) []TopicID) (*cluster, map[NodeID][]byte) {
	t.Helper()
	c := &cluster{
		eng:       simnet.NewEngine(42),
		delivered: make(map[EventID]map[NodeID]int),
		relayRecv: make(map[NodeID]int),
		totalRecv: make(map[NodeID]int),
	}
	c.net = simnet.NewNetwork(c.eng, simnet.Lossy{
		Inner:    simnet.UniformLatency{Min: 10, Max: 80},
		DropProb: drop,
	})
	params := Params{NetworkSizeEstimate: n}
	payloads := make(map[NodeID][]byte)
	hooks := Hooks{
		OnPayload: func(node NodeID, ev EventID, payload []byte) { payloads[node] = payload },
	}
	c.ids = make([]NodeID, n)
	for i := range c.ids {
		c.ids[i] = idspace.HashUint64(uint64(i))
	}
	c.nodes = make([]*Node, n)
	for i := range c.ids {
		nd := NewNode(c.net, c.ids[i], params, hooks)
		nd.pullAttempts = pullAttempts
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
	return c, payloads
}

// TestLossyPullStillDelivers: under 15% independent message loss the bounded
// retry must recover most payload transfers, where a single-shot pull
// (pullAttempts = 1) visibly loses some. This is the regression test for
// the lost-pull starvation bug: before retries existed, a dropped PullReq or
// PullResp silently starved the puller and everyone queued behind it.
func TestLossyPullStillDelivers(t *testing.T) {
	tp := Topic("lossy")
	count := func(maxAttempts int) int {
		c, payloads := lossyCluster(t, 20, 0.15, maxAttempts,
			func(i int) []TopicID { return []TopicID{tp} })
		c.run(40 * simnet.Second)
		c.subscribersOf(tp)[0].PublishData(tp, []byte("survives loss"))
		c.run(30 * simnet.Second)
		got := 0
		for _, nd := range c.nodes {
			if _, ok := payloads[nd.ID()]; ok {
				got++
			}
		}
		return got
	}

	withRetry := count(pullMaxAttempts)
	oneShot := count(1)
	t.Logf("payloads delivered: retry=%d/20 one-shot=%d/20", withRetry, oneShot)
	if withRetry < 18 {
		t.Errorf("with retries only %d/20 subscribers got the payload", withRetry)
	}
	if withRetry < oneShot {
		t.Errorf("retries delivered fewer payloads (%d) than one-shot (%d)", withRetry, oneShot)
	}
}

// TestPullBookkeepingEvicted: payloads and pull state must age out with the
// seen-set generations instead of accumulating forever. This is the
// regression test for the unbounded-growth bug: payloads, pullWaiters,
// wantPayload and pulling were never evicted.
func TestPullBookkeepingEvicted(t *testing.T) {
	tp := Topic("evict")
	c := newCluster(t, 10, Params{}, func(i int) []TopicID { return []TopicID{tp} })
	got := make(map[NodeID]map[EventID]bool)
	for _, nd := range c.nodes {
		nd.hooks.OnPayload = func(node NodeID, ev EventID, _ []byte) {
			if got[node] == nil {
				got[node] = make(map[EventID]bool)
			}
			got[node][ev] = true
		}
	}
	c.run(30 * simnet.Second)

	var evs []EventID
	for i := 0; i < 5; i++ {
		evs = append(evs, c.nodes[i].PublishData(tp, []byte{byte(i)}))
	}
	c.run(10 * simnet.Second)
	for _, nd := range c.nodes {
		if len(got[nd.ID()]) != len(evs) {
			t.Fatalf("node %v got %d/%d payloads before eviction", nd.ID(), len(got[nd.ID()]), len(evs))
		}
	}
	for _, nd := range c.nodes {
		if nd.PullBookkeepingSize() == 0 {
			t.Fatalf("node %v holds no pull state right after publishing", nd.ID())
		}
	}

	// Two full seen-set rotations (2 x 30 heartbeats, ring.Seen's
	// generation length) must clear every trace of the old events on every
	// node.
	c.run(2*30*simnet.Second + 10*simnet.Second)
	for _, nd := range c.nodes {
		if got := nd.PullBookkeepingSize(); got != 0 {
			t.Errorf("node %v still tracks %d pull entries after two rotations", nd.ID(), got)
		}
		for _, ev := range evs {
			if nd.HasPayload(ev) {
				t.Errorf("node %v still caches payload of %v after two rotations", nd.ID(), ev)
			}
		}
	}
}
