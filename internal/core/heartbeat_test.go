package core

import (
	"slices"
	"testing"
	"testing/quick"

	"vitis/internal/simnet"
	"vitis/internal/tman"
)

func TestFailureDetectionRemovesDeadNeighbor(t *testing.T) {
	tp := Topic("fd")
	c := newCluster(t, 16, Params{}, func(i int) []TopicID { return []TopicID{tp} })
	c.run(30 * simnet.Second)

	victim := c.nodes[3]
	victimID := victim.ID()
	holders := 0
	for _, nd := range c.nodes {
		if nd == victim {
			continue
		}
		for _, id := range nd.RoutingTable() {
			if id == victimID {
				holders++
				break
			}
		}
	}
	if holders == 0 {
		t.Fatal("victim not in anyone's table before dying")
	}
	victim.Leave()
	// ring.StaleAge = 5 heartbeats plus slack; also T-Man keeps re-selecting, so
	// the dead id must vanish everywhere.
	c.run(15 * simnet.Second)
	for _, nd := range c.nodes {
		if nd == victim || !nd.Alive() {
			continue
		}
		for _, id := range nd.RoutingTable() {
			if id == victimID {
				t.Fatalf("node %v still lists the dead neighbor after 15s", nd.ID())
			}
		}
	}
}

func TestProfileReplyResetsAge(t *testing.T) {
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(5))
	n := NewNode(net, 100, Params{}, Hooks{})
	n.Join([]NodeID{200})
	// Simulate a live peer 200 that replies to profiles.
	peer := NewNode(net, 200, Params{}, Hooks{})
	peer.Join([]NodeID{100})
	eng.RunUntil(10 * simnet.Second)
	if age := n.live.Age(200); age > 1 {
		t.Errorf("age of live neighbor is %d; replies should keep it near 0", age)
	}
}

func TestProfileMsgUpdatesKnowledge(t *testing.T) {
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(5))
	n := NewNode(net, 100, Params{}, Hooks{})
	n.Join(nil)
	tp := Topic("k")
	prof := &Profile{ID: 300, Subs: []TopicID{tp}}
	n.handleProfile(300, ProfileMsg{Profile: prof})
	got, ok := n.KnownProfile(300)
	if !ok || !got.Subscribed(tp) {
		t.Error("profile not stored")
	}
	if !slices.Contains(n.clusterNeighborsInto(nil), 300) {
		t.Error("profile sender not a reverse neighbor")
	}
}

func TestReverseNeighborExpires(t *testing.T) {
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(5))
	n := NewNode(net, 100, Params{}, Hooks{})
	n.Join(nil)
	n.handleProfile(300, ProfileMsg{Profile: &Profile{ID: 300}, Reply: true})
	if !slices.Contains(n.clusterNeighborsInto(nil), 300) {
		t.Fatal("reverse neighbor missing")
	}
	// ring.StaleAge * HeartbeatPeriod = 5s lease; heartbeats prune it.
	eng.RunUntil(10 * simnet.Second)
	if slices.Contains(n.clusterNeighborsInto(nil), 300) {
		t.Error("reverse neighbor survived expiry")
	}
	if _, still := n.KnownProfile(300); still {
		t.Error("profile of expired reverse neighbor kept")
	}
}

func TestProfileReplyDoesNotEcho(t *testing.T) {
	// A Reply profile must not trigger another reply (infinite ping-pong).
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(5))
	n := NewNode(net, 100, Params{}, Hooks{})
	n.Join(nil)
	replies := 0
	net.Attach(300, simnet.HandlerFunc(func(from NodeID, msg simnet.Message) {
		if pm, ok := msg.(ProfileMsg); ok && pm.Reply {
			replies++
		}
	}))
	n.handleProfile(300, ProfileMsg{Profile: &Profile{ID: 300}})
	n.handleProfile(300, ProfileMsg{Profile: &Profile{ID: 300}, Reply: true})
	eng.RunUntil(simnet.Second)
	if replies != 1 {
		t.Errorf("%d replies sent, want exactly 1", replies)
	}
}

func TestBuildProfileSnapshotsProposals(t *testing.T) {
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(5))
	n := NewNode(net, 100, Params{}, Hooks{})
	n.Join(nil)
	tp := Topic("snap")
	n.Subscribe(tp)
	n.proposals[tp] = Proposal{GW: 100, Parent: 100, Hops: 0}
	p := n.buildProfile()
	if !p.Subscribed(tp) {
		t.Error("profile missing subscription")
	}
	want := []TopicProposal{{Topic: tp, Proposal: Proposal{GW: 100, Parent: 100, Hops: 0}}}
	if !slices.Equal(p.Proposals, want) {
		t.Errorf("profile proposals = %+v, want %+v", p.Proposals, want)
	}
	// Mutating node state afterwards must not affect the snapshot.
	n.proposals[tp] = Proposal{GW: 999, Parent: 999, Hops: 1}
	if !slices.Equal(p.Proposals, want) {
		t.Error("profile proposals aliased to node state")
	}
}

func TestSortedSubsProperty(t *testing.T) {
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(5))
	f := func(raw []uint64) bool {
		n := NewNode(net, 1, Params{}, Hooks{})
		for _, v := range raw {
			n.Subscribe(TopicID(v))
		}
		subs := n.sortedSubs()
		for i := 1; i < len(subs); i++ {
			if subs[i] <= subs[i-1] {
				return false
			}
		}
		// Round trip: every subscribed topic present.
		for _, v := range raw {
			if !n.Subscribed(TopicID(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	_ = eng
}

func TestProposalLoopAvoidance(t *testing.T) {
	// A proposal whose parent is this node must never be adopted back
	// (the 2-cycle the paper's condition plus our self-guard prevents).
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(5))
	n := NewNode(net, 100, Params{}, Hooks{})
	n.Join(nil)
	tp := Topic("loop")
	n.Subscribe(tp)
	// Fake neighbor 200 whose proposal was derived from us, naming a GW
	// far closer to the topic than we are.
	n.handleProfile(200, ProfileMsg{Profile: &Profile{
		ID:   200,
		Subs: []TopicID{tp},
		Proposals: []TopicProposal{
			{Topic: tp, Proposal: Proposal{GW: TopicID(uint64(tp) + 1), Parent: 100, Hops: 1}},
		},
	}})
	n.updateProposals()
	prop, _ := n.ProposalFor(tp)
	if prop.GW != n.ID() {
		t.Errorf("adopted a proposal derived from ourselves: %+v", prop)
	}
}

func TestProposalAdoptsCloserGateway(t *testing.T) {
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(5))
	n := NewNode(net, 100, Params{}, Hooks{})
	n.Join(nil)
	tp := Topic("adopt")
	n.Subscribe(tp)
	gw := NodeID(uint64(tp) + 10) // very close to the topic id
	n.handleProfile(200, ProfileMsg{Profile: &Profile{
		ID:   200,
		Subs: []TopicID{tp},
		Proposals: []TopicProposal{
			{Topic: tp, Proposal: Proposal{GW: gw, Parent: 200, Hops: 0}}, // neighbor proposes itself-originated GW
		},
	}})
	n.updateProposals()
	prop, _ := n.ProposalFor(tp)
	if prop.GW != gw || prop.Parent != 200 || prop.Hops != 1 {
		t.Errorf("proposal = %+v, want adoption of %v via 200", prop, gw)
	}
	_ = eng
}

func TestProposalRespectsHopThreshold(t *testing.T) {
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(5))
	n := NewNode(net, 100, Params{GatewayHops: 3}, Hooks{})
	n.Join(nil)
	tp := Topic("hops")
	n.Subscribe(tp)
	gw := NodeID(uint64(tp) + 10)
	// Proposal already at hops = 2; adopting would make 3, violating
	// hops+1 < d = 3.
	n.handleProfile(200, ProfileMsg{Profile: &Profile{
		ID:   200,
		Subs: []TopicID{tp},
		Proposals: []TopicProposal{
			{Topic: tp, Proposal: Proposal{GW: gw, Parent: 200, Hops: 2}},
		},
	}})
	n.updateProposals()
	prop, _ := n.ProposalFor(tp)
	if prop.GW == gw {
		t.Errorf("adopted a proposal beyond the hop threshold: %+v", prop)
	}
	_ = eng
}

// TestBodilessProfileFromNeighbor: the codec accepts a ProfileMsg without a
// profile body. From a routing-table member it must count as a sign of life
// and not crash the node, neither in Algorithm 7 nor later in selection,
// which falls back to stored profiles for descriptors without a payload.
// It must not erase the stored profile either: gateway election skips
// neighbours without one.
func TestBodilessProfileFromNeighbor(t *testing.T) {
	n, profs := profileFixture(t, 4, false)
	id := profs[0].ID
	for i := 0; i < 3; i++ {
		n.heartbeat() // unanswered: sends are dropped
	}
	if n.live.Age(id) != 3 {
		t.Fatalf("age = %d after three unanswered heartbeats, want 3", n.live.Age(id))
	}
	n.handleProfile(id, ProfileMsg{})
	if age := n.live.Age(id); age != 0 {
		t.Errorf("age = %d after a bodiless heartbeat, want 0", age)
	}
	if stored, _ := n.KnownProfile(id); stored != profs[0] {
		t.Errorf("stored profile %v after a bodiless heartbeat, want the earlier %v", stored, profs[0])
	}
	if subs := n.subsOf(tman.Descriptor{ID: id}); !slices.Equal(subs, profs[0].Subs) {
		t.Errorf("subscriptions %v, want the gossip-learned %v", subs, profs[0].Subs)
	}
	n.heartbeat()
}
