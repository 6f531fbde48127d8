package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"vitis/internal/idspace"
	"vitis/internal/ring"
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

// TestUtilityCacheMatchesFresh drives a node through seeded random schedules
// of selections and profile changes and checks the knownSubs score cache
// against a cache-free model after every step:
//   - each entry holds the list its id's last payload carried;
//   - each scored entry's u is bit-equal to a fresh utilitySorted of that
//     list against the node's current subscriptions and rate function;
//   - selectNeighbors picks what selectFresh picks on a twin node (same id,
//     same engine seed, so the same small-world draws) that scores every
//     candidate afresh.
//
// Selections mix identical payload pointers, equal copies (as the wire
// decodes them), changed lists (half of them the same length) and
// payload-less candidates served from stored profiles or knownSubs; between
// them come Subscribe, Unsubscribe, SetRate, SetProximity and profile
// changes.
func TestUtilityCacheMatchesFresh(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		utilityCacheSchedule(t, seed)
	}
}

func utilityCacheSchedule(t *testing.T, seed int64) {
	t.Helper()
	const self = NodeID(1 << 40)
	params := Params{RTSize: 8, SWLinks: 1, NetworkSizeEstimate: 64}
	twin := func() *Node {
		eng := simnet.NewEngine(seed)
		n := NewNode(simnet.NewNetwork(eng, simnet.ConstantLatency(simnet.Lost)), self, params, Hooks{})
		n.Join(nil)
		return n
	}
	n, ref := twin(), twin()
	both := func(f func(*Node)) { f(n); f(ref) }

	rng := rand.New(rand.NewSource(seed))
	topics := perfTopics(12)
	pool := make([]NodeID, 40)
	for i := range pool {
		pool[i] = idspace.HashUint64(uint64(i) + 1)
	}
	randList := func(size int) []TopicID {
		l := make([]TopicID, 0, size)
		for _, i := range rng.Perm(len(topics))[:size] {
			l = append(l, topics[i])
		}
		sortTopics(l)
		return l
	}
	// changed returns a list unlike old; half the time it keeps old's
	// length and swaps one topic for one old lacks.
	changed := func(old []TopicID) []TopicID {
		if len(old) == 0 || len(old) == len(topics) || rng.Intn(2) == 0 {
			for {
				if l := randList(rng.Intn(7)); !slices.Equal(l, old) {
					return l
				}
			}
		}
		l := slices.Clone(old)
		for {
			if tp := topics[rng.Intn(len(topics))]; !slices.Contains(l, tp) {
				l[rng.Intn(len(l))] = tp
				sortTopics(l)
				return l
			}
		}
	}
	last := make(map[NodeID]*SubsSummary) // the model: each id's last payload
	checked := 0

	check := func(step int) {
		t.Helper()
		mine, _ := n.subsView()
		want := make([]TopicID, 0, len(n.subs))
		for tp := range n.subs {
			want = append(want, tp)
		}
		sortTopics(want)
		if !slices.Equal(mine, want) {
			t.Fatalf("seed %d step %d: subsView %v, want %v", seed, step, mine, want)
		}
		weight := weightSum(want, n.rate)
		for id, k := range n.knownSubs {
			if !slices.Equal(k.subs, *last[id]) {
				t.Fatalf("seed %d step %d: knownSubs[%v] holds %v, last payload %v", seed, step, id, k.subs, *last[id])
			}
			if k.u == unscored {
				continue
			}
			checked++
			if fresh := utilitySorted(want, weight, k.subs, n.rate); math.Float64bits(fresh) != math.Float64bits(k.u) {
				t.Fatalf("seed %d step %d: knownSubs[%v].u = %v, fresh utility %v", seed, step, id, k.u, fresh)
			}
		}
	}

	for step := 0; step < 300; step++ {
		switch r := rng.Intn(12); {
		case r < 6:
			buffer := make([]tman.Descriptor, 0, 24)
			for _, i := range rng.Perm(len(pool))[:8+rng.Intn(17)] {
				id := pool[i]
				d := tman.Descriptor{ID: id}
				prev := last[id]
				switch kind := rng.Intn(4); {
				case kind == 0 && prev != nil: // the same immutable list
					d.Payload = prev
				case kind == 1 && prev != nil: // an equal copy off the wire
					cp := SubsSummary(slices.Clone(*prev))
					d.Payload = &cp
				case kind == 3: // payload-less
				default:
					var old []TopicID
					if prev != nil {
						old = *prev
					}
					s := SubsSummary(changed(old))
					d.Payload, last[id] = &s, &s
				}
				buffer = append(buffer, d)
			}
			got := n.selectNeighbors(buffer)
			want := selectFresh(ref, buffer)
			if !slices.EqualFunc(got, want, func(a, b tman.Descriptor) bool { return a.ID == b.ID }) {
				t.Fatalf("seed %d step %d: selectNeighbors %v, cache-free %v", seed, step, ring.IDs(got), ring.IDs(want))
			}
		case r == 6:
			tp := topics[rng.Intn(len(topics))]
			both(func(x *Node) { x.Subscribe(tp) })
		case r == 7:
			tp := topics[rng.Intn(len(topics))]
			both(func(x *Node) { x.Unsubscribe(tp) })
		case r == 8:
			var rate func(TopicID) float64
			if rng.Intn(4) > 0 {
				rates := make(map[TopicID]float64, len(topics))
				for _, tp := range topics {
					rates[tp] = rng.ExpFloat64()
				}
				rate = func(tp TopicID) float64 { return rates[tp] }
			}
			both(func(x *Node) { x.SetRate(rate) })
		case r == 9:
			var prox func(NodeID) float64
			if rng.Intn(3) > 0 {
				prox = func(peer NodeID) float64 { return float64(peer%1000) / 1000 }
			}
			w := rng.Float64()
			both(func(x *Node) { x.SetProximity(prox, w) })
		default: // a stored profile, which payload-less candidates rank by
			id := pool[rng.Intn(len(pool))]
			p := &Profile{ID: id, Subs: randList(rng.Intn(7))}
			if rng.Intn(2) == 0 && last[id] != nil {
				p.Subs = *last[id]
			}
			both(func(x *Node) { x.profiles[id] = p })
		}
		check(step)
	}
	if checked == 0 {
		t.Fatalf("seed %d: no cached score was ever checked", seed)
	}
}

// selectFresh is Algorithm 4 without the score cache: payloads replace the
// stored lists outright and every candidate is scored with utilitySorted
// against a freshly sorted subscription list.
func selectFresh(n *Node, buffer []tman.Descriptor) []tman.Descriptor {
	buffer = n.live.DropSuspects(buffer, n.eng.Now())
	if len(buffer) == 0 {
		return nil
	}
	for _, d := range buffer {
		if subs, ok := payloadSubs(d); ok {
			n.knownSubs[d.ID] = knownSubs{subs: subs, u: unscored}
		}
	}
	sl := &n.sel.slots
	sl.Reset()
	sl.Ring(n.id, buffer)
	for i := 0; i < n.params.SWLinks; i++ {
		sl.SmallWorld(n.rng, n.id, n.params.NetworkSizeEstimate, buffer)
	}
	mine := make([]TopicID, 0, len(n.subs))
	for tp := range n.subs {
		mine = append(mine, tp)
	}
	sortTopics(mine)
	weight := weightSum(mine, n.rate)
	var rest []scored
	for _, d := range buffer {
		if sl.Taken(d.ID) {
			continue
		}
		u := utilitySorted(mine, weight, n.subsOf(d), n.rate)
		if n.proximity != nil && n.proximityWeight > 0 {
			u = (1-n.proximityWeight)*u + n.proximityWeight*n.proximity(d.ID)
		}
		rest = append(rest, scored{d: d, u: u})
	}
	slices.SortStableFunc(rest, func(a, b scored) int {
		if c := cmp.Compare(b.u, a.u); c != 0 {
			return c
		}
		return cmp.Compare(a.d.ID, b.d.ID)
	})
	for _, s := range rest {
		if sl.Len() >= n.params.RTSize {
			break
		}
		sl.Take(s.d)
	}
	return sl.Selected()
}

// TestKeepBestMatchesSort: keeping the best k candidates one at a time
// gives the first k of a full sort by (utility desc, id asc), on random
// utilities with many ties and any k, negative and oversized included.
func TestKeepBestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		ids := rng.Perm(1000)
		cands := make([]scored, rng.Intn(40))
		for i := range cands {
			cands[i] = scored{d: tman.Descriptor{ID: NodeID(ids[i])}, u: float64(rng.Intn(5)) / 4}
		}
		k := rng.Intn(len(cands)+4) - 2
		var top []scored
		for _, c := range cands {
			top = keepBest(top, c, k)
		}
		want := slices.Clone(cands)
		slices.SortStableFunc(want, func(a, b scored) int {
			if c := cmp.Compare(b.u, a.u); c != 0 {
				return c
			}
			return cmp.Compare(a.d.ID, b.d.ID)
		})
		want = want[:max(0, min(k, len(want)))]
		if !slices.Equal(top, want) {
			t.Fatalf("trial %d, k=%d: kept %v, want %v", trial, k, top, want)
		}
	}
}

// TestKnownSubsBounded runs a churning world to T and to 4T of virtual
// time: 100 nodes on 5 of 100 topics each, one of them replaced by a
// newcomer every second. The largest per-node entry count at 4T must be no
// higher than the highest it reached, sampled every second, up to T. Aged,
// the count is stationary by then; without aging every departed id stays
// known and the count grows with the number of ids the world has held.
func TestKnownSubsBounded(t *testing.T) {
	topics := perfTopics(100)
	rng := rand.New(rand.NewSource(3))
	subs := func() []TopicID {
		var l []TopicID
		for _, i := range rng.Perm(len(topics))[:5] {
			l = append(l, topics[i])
		}
		return l
	}
	c := newCluster(t, 100, Params{}, func(int) []TopicID { return subs() })
	next := uint64(len(c.nodes))
	c.eng.Every(simnet.Second, func() bool {
		i := rng.Intn(len(c.nodes))
		c.nodes[i].Leave()
		nd := NewNode(c.net, idspace.HashUint64(next), Params{NetworkSizeEstimate: 100}, Hooks{})
		next++
		for _, tp := range subs() {
			nd.Subscribe(tp)
		}
		var boot []NodeID
		for j := 1; j <= 3; j++ {
			boot = append(boot, c.nodes[(i+j)%len(c.nodes)].ID())
		}
		nd.Join(boot)
		c.nodes[i] = nd
		return true
	})
	largest := func() int {
		most := 0
		for _, nd := range c.nodes {
			most = max(most, len(nd.knownSubs))
		}
		return most
	}
	const T = 5 * knownSubsBeats * simnet.Second
	peak := 0
	for range T / simnet.Second {
		c.run(simnet.Second)
		peak = max(peak, largest())
	}
	c.run(3 * T)
	if at4T := largest(); at4T > peak {
		t.Errorf("largest knownSubs: %d entries at %v, at most %d up to %v", at4T, 4*T, peak, T)
	}
}
