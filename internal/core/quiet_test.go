package core

import (
	"testing"

	"vitis/internal/simnet"
	"vitis/internal/tman"
)

// quietPeer attaches a recording handler at id: every ProfileMsg sent to it
// lands in the returned slice, in send order.
func quietPeer(net *simnet.Network, id NodeID) *[]ProfileMsg {
	var got []ProfileMsg
	net.Attach(id, simnet.HandlerFunc(func(_ NodeID, msg simnet.Message) {
		if pm, ok := msg.(ProfileMsg); ok {
			got = append(got, pm)
		}
	}))
	return &got
}

// TestQuietHeartbeatRules walks both sides of the quiet heartbeat. The
// sender sends its profile in full in the first round after the snapshot
// changed and the digest beacon otherwise; the receiver asks for the full
// profile exactly when a beacon's digest misses what it stores, and
// replies only to senders outside its routing table.
func TestQuietHeartbeatRules(t *testing.T) {
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(5))
	n := NewNode(net, 100, Params{Recovery: true}, Hooks{})
	n.Join(nil)
	got := quietPeer(net, 300)
	flush := func() []ProfileMsg {
		eng.RunUntil(eng.Now() + 10)
		out := *got
		*got = nil
		return out
	}
	prof := &Profile{ID: 300, Subs: []TopicID{7}}

	// A beacon from a stranger with nothing stored: ask for the profile,
	// and answer the heartbeat with our own beacon.
	n.handleProfile(300, ProfileMsg{Digest: prof.Digest()})
	if out := flush(); len(out) != 2 || !out[0].Want || out[1].Digest == 0 || !out[1].Reply || out[1].Profile != nil {
		t.Fatalf("beacon with nothing stored sent %+v, want a Want and a beacon reply", out)
	}
	n.handleProfile(300, ProfileMsg{Profile: prof, Reply: true})
	n.handleProfile(300, ProfileMsg{Digest: prof.Digest(), Reply: true})
	if out := flush(); len(out) != 0 {
		t.Fatalf("a full reply and a matching beacon reply sent %+v, want nothing", out)
	}
	n.handleProfile(300, ProfileMsg{Digest: prof.Digest() + 1, Reply: true})
	if out := flush(); len(out) != 1 || !out[0].Want {
		t.Fatalf("a mismatching beacon sent %+v, want one Want", out)
	}
	if stored, _ := n.KnownProfile(300); stored != prof {
		t.Fatal("a mismatching beacon replaced the stored profile")
	}

	// A routing-table member hears our heartbeat anyway: no reply.
	n.xchg.Seed([]tman.Descriptor{{ID: 300}})
	n.handleProfile(300, ProfileMsg{Digest: prof.Digest()})
	if out := flush(); len(out) != 0 {
		t.Fatalf("heartbeat from a table member drew %+v, want nothing", out)
	}

	// Sender: full once per snapshot, beacons in between.
	beat := func() ProfileMsg {
		n.heartbeat()
		out := flush()
		if len(out) != 1 {
			t.Fatalf("heartbeat sent %+v, want one message", out)
		}
		return out[0]
	}
	if m := beat(); m.Profile == nil {
		t.Errorf("first heartbeat after the snapshot was built is %+v, want the full profile", m)
	}
	if m := beat(); m.Profile != nil || m.Digest != n.buildProfile().Digest() {
		t.Errorf("unchanged heartbeat is %+v, want the beacon of the current snapshot", m)
	}
	n.Subscribe(Topic("fresh"))
	if m := beat(); m.Profile == nil || !m.Profile.Subscribed(Topic("fresh")) {
		t.Errorf("heartbeat after a subscription is %+v, want the new full profile", m)
	}
	if m := beat(); m.Profile != nil {
		t.Errorf("second heartbeat after the change is %+v, want a beacon", m)
	}
}

// TestWantAnsweredOncePerPeriod bounds the amplification a Want buys: a
// burst of 37-byte Wants from one peer gets one full profile per heartbeat
// period.
func TestWantAnsweredOncePerPeriod(t *testing.T) {
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(5))
	n := NewNode(net, 100, Params{Recovery: true}, Hooks{})
	n.Join(nil)
	n.Subscribe(Topic("t"))
	got := quietPeer(net, 300)
	burst := func() int {
		for i := 0; i < 100; i++ {
			n.handleProfile(300, ProfileMsg{Want: true})
		}
		eng.RunUntil(eng.Now() + 10)
		full := 0
		for _, m := range *got {
			if m.Profile == nil || !m.Reply {
				t.Fatalf("answered a Want with %+v, want the full reply", m)
			}
			full++
		}
		*got = nil
		return full
	}
	if k := burst(); k != 1 {
		t.Errorf("100 Wants in one turn drew %d full replies, want 1", k)
	}
	if k := burst(); k != 0 {
		t.Errorf("more Wants in the same period drew %d full replies, want 0", k)
	}
	eng.RunUntil(eng.Now() + n.params.HeartbeatPeriod)
	if k := burst(); k != 1 {
		t.Errorf("100 Wants in the next period drew %d full replies, want 1", k)
	}
}

// wantCounter counts the Wants a simulated network carries.
type wantCounter struct{ wants int }

func (c *wantCounter) OnSend(_, _ NodeID, msg simnet.Message) {
	if pm, ok := msg.(ProfileMsg); ok && pm.Want {
		c.wants++
	}
}
func (c *wantCounter) OnDeliver(_, _ NodeID, _ simnet.Message) {}
func (c *wantCounter) OnDrop(_, _ NodeID, _ simnet.Message)    {}

// TestQuietHeartbeatsSteadyState: once the overlay stands still, beacons
// alone keep every stored profile current — 20 heartbeat rounds without a
// single Want — and a subscription change reaches every cluster neighbour
// within two heartbeat periods.
//
// The overlay is frozen on purpose. With gossip running, Algorithm 4 redraws
// each node's small-world link every round, so routing tables never stop
// changing, and each new edge costs one Want for the profile its new
// neighbour has never sent.
func TestQuietHeartbeatsSteadyState(t *testing.T) {
	topics := make([]TopicID, 8)
	for i := range topics {
		topics[i] = Topic(string(rune('a' + i)))
	}
	c := newCluster(t, 64, Params{Recovery: true}, func(i int) []TopicID {
		return []TopicID{topics[i%8], topics[(i/8+i)%8]}
	})
	c.run(60 * simnet.Second)
	for _, nd := range c.nodes {
		nd.sampler.Stop()
		nd.xchg.Stop()
	}
	period := c.nodes[0].params.HeartbeatPeriod
	c.run(10 * period) // gateway proposals settle on the frozen tables

	count := &wantCounter{}
	c.net.AddObserver(count)
	c.run(20 * period)
	if count.wants != 0 {
		t.Errorf("converged cluster sent %d Wants in 20 heartbeat rounds, want 0", count.wants)
	}
	byID := make(map[NodeID]*Node, len(c.nodes))
	for _, nd := range c.nodes {
		byID[nd.ID()] = nd
	}
	for _, nd := range c.nodes {
		for _, nb := range nd.clusterNeighborsInto(nil) {
			if stored := nd.profiles[nb]; !stored.Equal(byID[nb].buildProfile()) {
				t.Fatalf("node %v holds %+v for neighbour %v, whose snapshot is %+v",
					nd.ID(), stored, nb, byID[nb].buildProfile())
			}
		}
	}

	x, fresh := c.nodes[5], Topic("fresh")
	x.Subscribe(fresh)
	c.run(2 * period)
	for _, nb := range x.clusterNeighborsInto(nil) {
		if p, _ := byID[nb].KnownProfile(x.ID()); p == nil || !p.Subscribed(fresh) {
			t.Errorf("neighbour %v holds %+v two periods after %v subscribed", nb, p, x.ID())
		}
	}
}
