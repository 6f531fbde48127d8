package core

import (
	"math"
	"testing"
	"testing/quick"

	"vitis/internal/idspace"
	"vitis/internal/simnet"
	"vitis/internal/tman"
)

func subsSet(ts ...TopicID) map[TopicID]bool {
	m := make(map[TopicID]bool, len(ts))
	for _, t := range ts {
		m[t] = true
	}
	return m
}

func TestUtilityPaperExample(t *testing.T) {
	// §III-A2: p={A,B,C}, q={C,D}, r={C,D,E,F,G,H} with uniform rates
	// gives utility(p,q)=0.25, utility(p,r)=0.125, utility(q,r)=0.33.
	A, B, C, D, E, F, G, H := Topic("A"), Topic("B"), Topic("C"), Topic("D"),
		Topic("E"), Topic("F"), Topic("G"), Topic("H")
	p := subsSet(A, B, C)
	q := []TopicID{C, D}
	r := []TopicID{C, D, E, F, G, H}
	if got := Utility(p, q, nil); got != 0.25 {
		t.Errorf("utility(p,q) = %g, want 0.25", got)
	}
	if got := Utility(p, r, nil); got != 0.125 {
		t.Errorf("utility(p,r) = %g, want 0.125", got)
	}
	qSet := subsSet(C, D)
	if got := Utility(qSet, r, nil); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("utility(q,r) = %g, want 1/3", got)
	}
}

func TestUtilityRateWeighting(t *testing.T) {
	// §III-A2: a zero-rate topic is practically ignored; a hot shared
	// topic boosts utility.
	hot, cold := Topic("hot"), Topic("cold")
	mine := subsSet(hot, cold)
	// Share only the cold topic: with its rate at 0 the utility vanishes.
	rate := func(tp TopicID) float64 {
		if tp == cold {
			return 0
		}
		return 10
	}
	if got := Utility(mine, []TopicID{cold}, rate); got != 0 {
		t.Errorf("cold-only overlap should be worthless, got %g", got)
	}
	// Share only the hot topic: utility = 10/10 relative to my 10 (hot)
	// + 0 (cold) and their 10.
	if got := Utility(mine, []TopicID{hot}, rate); got != 1 {
		t.Errorf("hot-only overlap = %g, want 1", got)
	}
}

func TestUtilityEmptySets(t *testing.T) {
	if got := Utility(nil, nil, nil); got != 0 {
		t.Errorf("empty utility = %g", got)
	}
	if got := Utility(subsSet(Topic("x")), nil, nil); got != 0 {
		t.Errorf("disjoint utility = %g", got)
	}
}

func TestUtilityBoundsProperty(t *testing.T) {
	f := func(mine, theirs []uint8) bool {
		m := make(map[TopicID]bool)
		for _, v := range mine {
			m[TopicID(v)] = true
		}
		th := make([]TopicID, len(theirs))
		for i, v := range theirs {
			th[i] = TopicID(v)
		}
		u := Utility(m, th, nil)
		return u >= 0 && u <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// newTestNode builds an unjoined node with a live exchanger for direct
// selection testing.
func newTestNode(t *testing.T, id NodeID, params Params) *Node {
	t.Helper()
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(1))
	n := NewNode(net, id, params, Hooks{})
	n.Join(nil)
	return n
}

func descWithSubs(id NodeID, subs ...TopicID) tman.Descriptor {
	s := SubsSummary(subs)
	return tman.Descriptor{ID: id, Payload: &s}
}

func TestSelectNeighborsStructure(t *testing.T) {
	self := idspace.ID(1000)
	n := newTestNode(t, self, Params{RTSize: 6, SWLinks: 1, NetworkSizeEstimate: 16})
	tp := Topic("shared")
	n.Subscribe(tp)

	// Candidates around the ring; 900 is the predecessor, 1100 the
	// successor.
	buffer := []tman.Descriptor{
		descWithSubs(900),
		descWithSubs(1100),
		descWithSubs(5000, tp), // shares the topic: best friend
		descWithSubs(7000),
		descWithSubs(200),
	}
	sel := n.selectNeighbors(buffer)
	if len(sel) > 6 {
		t.Fatalf("selected %d > RTSize", len(sel))
	}
	if sel[0].ID != 1100 {
		t.Errorf("slot 0 (successor) = %v, want 1100", sel[0].ID)
	}
	if sel[1].ID != 900 {
		t.Errorf("slot 1 (predecessor) = %v, want 900", sel[1].ID)
	}
	// The friend sharing a topic must appear somewhere.
	found := false
	for _, d := range sel {
		if d.ID == 5000 {
			found = true
		}
	}
	if !found {
		t.Error("high-utility candidate not selected")
	}
}

func TestSelectNeighborsEmptyBuffer(t *testing.T) {
	n := newTestNode(t, 1, Params{})
	if got := n.selectNeighbors(nil); got != nil {
		t.Errorf("expected nil, got %v", got)
	}
}

func TestSelectNeighborsFriendsRankedByUtility(t *testing.T) {
	self := idspace.ID(1 << 30)
	n := newTestNode(t, self, Params{RTSize: 4, SWLinks: 1})
	a, b, c := Topic("a"), Topic("b"), Topic("c")
	n.Subscribe(a)
	n.Subscribe(b)

	// After successor, predecessor and one sw link, exactly one friend
	// slot remains; the candidate sharing both topics must win it.
	buffer := []tman.Descriptor{
		descWithSubs(10),
		descWithSubs(20),
		descWithSubs(30),
		descWithSubs(40, c),
		descWithSubs(50, a, b), // utility 1
		descWithSubs(60, a, c), // utility 1/3
	}
	sel := n.selectNeighbors(buffer)
	if len(sel) != 4 {
		t.Fatalf("selected %d, want 4", len(sel))
	}
	has50 := false
	for _, d := range sel[3:] {
		if d.ID == 50 {
			has50 = true
		}
	}
	if !has50 {
		// 50 could also have been taken as sw/ring link; ensure it is
		// in the table at all.
		for _, d := range sel {
			if d.ID == 50 {
				has50 = true
			}
		}
	}
	if !has50 {
		t.Errorf("best friend (50) missing from %v", sel)
	}
}

func TestSelectNeighborsBoundedByRTSize(t *testing.T) {
	n := newTestNode(t, 500, Params{RTSize: 8, SWLinks: 2, NetworkSizeEstimate: 64})
	var buffer []tman.Descriptor
	for i := 0; i < 50; i++ {
		buffer = append(buffer, descWithSubs(idspace.HashUint64(uint64(i))))
	}
	sel := n.selectNeighbors(buffer)
	if len(sel) != 8 {
		t.Errorf("selected %d, want exactly RTSize=8", len(sel))
	}
	seen := map[NodeID]bool{}
	for _, d := range sel {
		if seen[d.ID] {
			t.Fatalf("duplicate %v in selection", d.ID)
		}
		seen[d.ID] = true
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.WithDefaults()
	if p.RTSize != 15 || p.SWLinks != 1 || p.GatewayHops != 5 {
		t.Errorf("defaults %+v", p)
	}
	if p.Friends() != 12 {
		t.Errorf("Friends() = %d, want 12", p.Friends())
	}
	small := Params{RTSize: 2, SWLinks: 5}.WithDefaults()
	if small.Friends() != 0 {
		t.Errorf("Friends() should clamp at 0, got %d", small.Friends())
	}
}

func TestProfileSubscribed(t *testing.T) {
	a, b, c := Topic("a"), Topic("b"), Topic("c")
	subs := []TopicID{a, b}
	if a > b {
		subs = []TopicID{b, a}
	}
	p := &Profile{Subs: subs}
	if !p.Subscribed(a) || !p.Subscribed(b) {
		t.Error("Subscribed misses present topics")
	}
	if p.Subscribed(c) {
		t.Error("Subscribed reports absent topic")
	}
}
