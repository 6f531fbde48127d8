package core

import (
	"cmp"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"vitis/internal/idspace"
	"vitis/internal/simnet"
	"vitis/internal/telemetry"
	"vitis/internal/tman"
)

// updateProposalsNested is Algorithm 5 as a nested loop: for every topic,
// every neighbor, with one profile lookup and two binary searches each. It
// is the reference the merge in updateProposals must match step for step.
func (n *Node) updateProposalsNested() {
	neighbors := n.clusterNeighborsInto(nil)
	reachable := func(id NodeID) bool {
		if n.xchg.Contains(id) {
			return true
		}
		exp, ok := n.reverse[id]
		return ok && exp > n.eng.Now()
	}
	for _, t := range n.sortedSubs() {
		prop := Proposal{GW: n.id, Parent: n.id, Hops: 0}
		for _, nb := range neighbors {
			p := n.profiles[nb]
			if p == nil || !p.Subscribed(t) {
				continue
			}
			i, ok := slices.BinarySearchFunc(p.Proposals, t, func(e TopicProposal, t TopicID) int {
				return cmp.Compare(e.Topic, t)
			})
			if !ok {
				continue
			}
			next := p.Proposals[i].Proposal
			if next.Parent == n.id {
				continue
			}
			if nb != next.Parent && reachable(next.Parent) {
				continue
			}
			curDis := idspace.Distance(prop.GW, t)
			newDis := idspace.Distance(next.GW, t)
			if newDis < curDis && next.Hops+1 < n.params.GatewayHops {
				prop = Proposal{GW: next.GW, Parent: nb, Hops: next.Hops + 1}
			}
			if next.GW == prop.GW && next.Hops+1 < prop.Hops {
				prop = Proposal{GW: next.GW, Parent: nb, Hops: next.Hops + 1}
			}
		}
		old, had := n.proposals[t]
		if !had || old.GW != prop.GW {
			n.tel.GatewayChanges.Inc()
			n.tracer.Emit(telemetry.SpanEvent{
				Kind: telemetry.KindGateway, Node: uint64(n.id),
				Peer: uint64(prop.GW), Topic: uint64(t), Hops: prop.Hops,
			})
		}
		if !had || old != prop {
			n.proposals[t] = prop
			n.profileCache = nil
		}
		if prop.GW == n.id {
			n.requestRelay(t)
		}
	}
}

// relaySend is one relay lookup handed to the network.
type relaySend struct {
	from, to NodeID
	msg      RelayMsg
}

// sendLog records the relay lookups a node sends, in order.
type sendLog struct{ sends []relaySend }

func (l *sendLog) OnSend(from, to NodeID, msg simnet.Message) {
	if m, ok := msg.(RelayMsg); ok {
		l.sends = append(l.sends, relaySend{from, to, m})
	}
}
func (l *sendLog) OnDeliver(NodeID, NodeID, simnet.Message) {}
func (l *sendLog) OnDrop(NodeID, NodeID, simnet.Message)    {}

// proposalWorld is a random Algorithm 5 fixture: a node with routing-table
// neighbors (some without a profile), reverse-only neighbors, an expired
// reverse neighbor whose profile is still stored, overlapping topic lists,
// and proposals whose parent is the node, the proposer, another neighbor
// or a stranger, with hop counts around GatewayHops.
type proposalWorld struct {
	n      *Node
	log    *sendLog
	pool   []NodeID
	topics []TopicID
}

func newProposalWorld(t *testing.T, rng *rand.Rand) *proposalWorld {
	t.Helper()
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(simnet.Lost))
	log := &sendLog{}
	net.AddObserver(log)
	self := idspace.HashUint64(rng.Uint64())
	n := NewNode(net, self, Params{RTSize: 15, SWLinks: 1, NetworkSizeEstimate: 1024}, Hooks{})
	n.Join(nil)
	w := &proposalWorld{n: n, log: log}
	for i := 0; i < 8; i++ {
		w.topics = append(w.topics, idspace.HashUint64(uint64(i)*7919+uint64(rng.Intn(3))))
	}
	for i := 0; i < 14; i++ {
		w.pool = append(w.pool, idspace.HashUint64(uint64(i)+1000*uint64(rng.Intn(2))))
	}
	for _, tp := range w.topics {
		if rng.Intn(3) > 0 {
			n.Subscribe(tp)
		}
	}
	// Some topics start with a proposal already in place.
	for _, tp := range n.sortedSubs() {
		if rng.Intn(2) == 0 {
			n.proposals[tp] = Proposal{GW: w.pick(rng, self), Parent: w.pick(rng, self), Hops: rng.Intn(3)}
		}
	}
	// The first ten pool ids go to the routing table, the rest become
	// reverse-only neighbors, and one of those is left expired.
	var seed []tman.Descriptor
	for _, id := range w.pool[:10] {
		seed = append(seed, tman.Descriptor{ID: id, Payload: &SubsSummary{}})
	}
	n.xchg.Seed(seed)
	for i, id := range w.pool {
		if i < 10 && rng.Intn(4) == 0 {
			continue // a routing-table neighbor without a profile
		}
		w.hear(rng, id)
	}
	n.reverse[w.pool[len(w.pool)-1]] = eng.Now()
	return w
}

// pick returns self, a pool node or a stranger.
func (w *proposalWorld) pick(rng *rand.Rand, self NodeID) NodeID {
	switch rng.Intn(4) {
	case 0:
		return self
	case 1:
		return idspace.HashUint64(rng.Uint64())
	}
	return w.pool[rng.Intn(len(w.pool))]
}

// hear stores a fresh random profile from id.
func (w *proposalWorld) hear(rng *rand.Rand, id NodeID) {
	var subs []TopicID
	for _, tp := range w.topics {
		if rng.Intn(3) > 0 {
			subs = append(subs, tp)
		}
	}
	slices.Sort(subs)
	w.send(rng, id, slices.Compact(subs))
}

// send stores a profile from id with the given Subs and fresh random
// proposals: one for every topic half of the time (as every profile after
// its owner's first heartbeat), for a random subset otherwise.
func (w *proposalWorld) send(rng *rand.Rand, id NodeID, subs []TopicID) {
	p := &Profile{ID: id, Subs: subs}
	aligned := rng.Intn(2) == 0
	for _, tp := range p.Subs {
		if !aligned && rng.Intn(4) == 0 {
			continue
		}
		gw := w.pick(rng, w.n.id)
		if rng.Intn(3) == 0 {
			gw = id
		}
		parent := w.pick(rng, w.n.id)
		if rng.Intn(3) == 0 {
			parent = id
		}
		p.Proposals = append(p.Proposals, TopicProposal{Topic: tp, Proposal: Proposal{
			GW: gw, Parent: parent, Hops: rng.Intn(w.n.params.GatewayHops + 2),
		}})
	}
	w.n.handleProfile(id, ProfileMsg{Profile: p, Reply: true})
}

// change applies one random change between two Algorithm 5 passes: new
// subscription lists, a profile swapped for one with the same Subs slice
// or an equal copy of it (as the wire decodes it), the node's own
// Subscribe, Unsubscribe or SetRate, or a neighbour leaving or returning.
func (w *proposalWorld) change(rng *rand.Rand) {
	id := w.pool[rng.Intn(len(w.pool))]
	switch rng.Intn(8) {
	case 0:
		for i := 0; i < 4; i++ {
			w.hear(rng, w.pool[rng.Intn(len(w.pool))])
		}
	case 1, 2:
		if p := w.n.profiles[id]; p != nil {
			w.send(rng, id, p.Subs)
		}
	case 3:
		if p := w.n.profiles[id]; p != nil {
			w.send(rng, id, slices.Clone(p.Subs))
		}
	case 4:
		w.n.Subscribe(w.topics[rng.Intn(len(w.topics))])
	case 5:
		w.n.Unsubscribe(w.topics[rng.Intn(len(w.topics))])
	case 6:
		if rng.Intn(2) == 0 {
			w.n.SetRate(nil)
		} else {
			w.n.SetRate(func(TopicID) float64 { return 2 })
		}
	case 7:
		if w.n.profiles[id] == nil {
			w.hear(rng, id) // returning as a reverse neighbour
			return
		}
		w.n.xchg.Remove(id)
		delete(w.n.reverse, id)
		w.n.dropProfile(id)
	}
}

// TestUpdateProposalsMatchesNestedLoop runs the merge and the nested-loop
// reference on twin random fixtures over sequences of heartbeats, with one
// to three random changes (proposalWorld.change) between passes, and
// requires the same proposals, gateway-change count, profile invalidation
// and relay lookups in the same order after every pass.
func TestUpdateProposalsMatchesNestedLoop(t *testing.T) {
	adopted, sent := 0, 0
	for trial := int64(0); trial < 300; trial++ {
		rngA, rngB := rand.New(rand.NewSource(trial)), rand.New(rand.NewSource(trial))
		a, b := newProposalWorld(t, rngA), newProposalWorld(t, rngB)
		for round := 0; round < 10; round++ {
			if round > 0 {
				for range 1 + rngA.Intn(3) {
					a.change(rngA)
				}
				for range 1 + rngB.Intn(3) {
					b.change(rngB)
				}
			}
			a.n.profileCache, b.n.profileCache = &Profile{}, &Profile{}
			a.n.updateProposals()
			b.n.updateProposalsNested()
			if !maps.Equal(a.n.proposals, b.n.proposals) {
				t.Fatalf("trial %d round %d: proposals\n got  %v\n want %v", trial, round, a.n.proposals, b.n.proposals)
			}
			if ga, gb := a.n.tel.GatewayChanges.Value(), b.n.tel.GatewayChanges.Value(); ga != gb {
				t.Fatalf("trial %d round %d: %d gateway changes, want %d", trial, round, ga, gb)
			}
			if (a.n.profileCache == nil) != (b.n.profileCache == nil) {
				t.Fatalf("trial %d round %d: profile invalidated %v, want %v", trial, round, a.n.profileCache == nil, b.n.profileCache == nil)
			}
			if !slices.Equal(a.log.sends, b.log.sends) {
				t.Fatalf("trial %d round %d: relay sends\n got  %v\n want %v", trial, round, a.log.sends, b.log.sends)
			}
			for _, p := range a.n.proposals {
				if p.GW != a.n.id {
					adopted++
				}
			}
		}
		sent += len(a.log.sends)
	}
	if adopted == 0 || sent == 0 {
		t.Fatalf("%d adopted proposals, %d relay lookups: the fixture exercises too little", adopted, sent)
	}
}

// TestProposalIntersectionsCarryOver checks that Algorithm 5 reuses a
// neighbour's cached intersection exactly while its Subs and the node's own
// list stand. It poisons every cached intersection (no topic in common),
// then gives each neighbour a new profile: with the same Subs slice, an
// equal copy of it, or a shorter list. The poison must survive for the
// first two and be gone for the third; after the node's own Subscribe it
// must be gone everywhere.
func TestProposalIntersectionsCarryOver(t *testing.T) {
	n := proposalBench(t)
	poison := func() {
		clear(n.prop.words)
	}
	// entry returns neighbour id's cached Subs and words.
	entry := func(id NodeID) ([]TopicID, []uint64) {
		mw, off := bitWords(len(n.sortedSubs())), 0
		for _, e := range n.prop.entries {
			w := span(e.subs, mw)
			if e.id == id {
				return e.subs, n.prop.words[off : off+w]
			}
			off += w
		}
		t.Fatalf("%v is not in the neighbour snapshot", id)
		return nil, nil
	}
	zero := func(ws []uint64) bool { return !slices.ContainsFunc(ws, func(w uint64) bool { return w != 0 }) }
	poison()
	kinds := make(map[NodeID]int)
	for i, nb := range n.propNbrs {
		p := n.profiles[nb]
		kinds[nb] = i % 3
		q := &Profile{ID: nb, Subs: p.Subs, Proposals: slices.Clone(p.Proposals)}
		switch i % 3 {
		case 1:
			q.Subs = slices.Clone(p.Subs)
		case 2:
			q.Subs, q.Proposals = p.Subs[1:], q.Proposals[1:]
		}
		for k := range q.Proposals {
			q.Proposals[k].Proposal.Hops++ // a new profile, not an equal one
		}
		n.handleProfile(nb, ProfileMsg{Profile: q, Reply: true})
	}
	n.updateProposals()
	for _, nb := range n.propNbrs {
		subs, ws := entry(nb)
		if p := n.profiles[nb]; len(subs) == 0 || &subs[0] != &p.Subs[0] {
			t.Fatalf("%v: the cache does not hold the profile's Subs slice", nb)
		}
		if kept := kinds[nb] < 2; zero(ws) != kept {
			t.Errorf("%v (change kind %d): poisoned intersection kept %v, want %v", nb, kinds[nb], zero(ws), kept)
		}
	}
	poison()
	n.Subscribe(perfTopics(80)[79])
	n.updateProposals()
	for _, nb := range n.propNbrs {
		if _, ws := entry(nb); zero(ws) {
			t.Errorf("%v: an intersection taken before Subscribe was reused", nb)
		}
	}
}

// proposalBench is a node with 50 subscriptions and 20 cluster neighbors
// (15 in the routing table, 5 reverse-only). Each neighbor subscribes to
// half of the node's topics plus ten of its own and proposes, for each, a
// gateway next to the topic's id, so the node never elects itself and a
// call sends nothing.
func proposalBench(tb testing.TB) *Node {
	tb.Helper()
	n := perfTestNode(tb, 1<<40, Params{RTSize: 15, SWLinks: 1, NetworkSizeEstimate: 1024})
	topics := perfTopics(80)
	for _, tp := range topics[:50] {
		n.Subscribe(tp)
	}
	var seed []tman.Descriptor
	var profs []*Profile
	for i := 0; i < 20; i++ {
		id := idspace.HashUint64(uint64(i) + 1)
		p := &Profile{ID: id}
		for j := 0; j < 25; j++ {
			p.Subs = append(p.Subs, topics[(i+2*j)%50])
		}
		for j := 0; j < 10; j++ {
			p.Subs = append(p.Subs, topics[50+(i+j)%30])
		}
		slices.Sort(p.Subs)
		for j, tp := range p.Subs {
			parent := id
			if j%3 == 0 {
				parent = idspace.HashUint64(uint64(j) + 1<<32)
			}
			p.Proposals = append(p.Proposals, TopicProposal{Topic: tp, Proposal: Proposal{
				GW: tp + NodeID(1+(i+j)%4), Parent: parent, Hops: (i + j) % 4,
			}})
		}
		profs = append(profs, p)
		if i < 15 {
			seed = append(seed, tman.Descriptor{ID: id, Payload: p.Summary()})
		}
	}
	n.xchg.Seed(seed)
	if n.xchg.Len() != 15 {
		tb.Fatalf("routing table holds %d of 15 neighbors", n.xchg.Len())
	}
	for _, p := range profs {
		n.handleProfile(p.ID, ProfileMsg{Profile: p, Reply: true})
	}
	if got := len(n.clusterNeighborsInto(nil)); got != 20 {
		tb.Fatalf("%d cluster neighbors, want 20", got)
	}
	n.updateProposals()
	for _, tp := range topics[:50] {
		if n.proposals[tp].GW == n.id {
			tb.Fatalf("the node elected itself for %v", tp)
		}
	}
	return n
}

// TestUpdateProposalsAllocFree pins a warm Algorithm 5 pass at zero
// allocations: both passes run in the node's scratch slices.
func TestUpdateProposalsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	n := proposalBench(t)
	if avg := testing.AllocsPerRun(100, n.updateProposals); avg != 0 {
		t.Errorf("updateProposals allocates %.2f objects/run, want 0", avg)
	}
}

func BenchmarkUpdateProposals(b *testing.B) {
	n := proposalBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.updateProposals()
	}
}
