package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"vitis/internal/idspace"
	"vitis/internal/simnet"
	"vitis/internal/tman"
)

// TestUtilityDeterministicAdversarialWeights is the regression test for the
// nondeterministic Eq. 1 accumulation: the old implementation summed the
// "mine" rate mass in Go map-iteration order, so with weights spanning many
// orders of magnitude the low bits of the utility — and hence neighbor
// rankings — could differ between runs of the same seed. The fixed version
// accumulates in sorted topic order, making the result a pure function of
// the set contents; we assert bit-identical results across many differently
// built (but equal) subscription maps.
func TestUtilityDeterministicAdversarialWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const k = 64
	topics := make([]TopicID, k)
	rates := make(map[TopicID]float64, k)
	for i := range topics {
		topics[i] = idspace.HashUint64(uint64(i) * 0x9e3779b97f4a7c15)
		// Adversarial weights: magnitudes from 1e-30 to 1e+30, so any
		// change in accumulation order flips low-order bits of the sum.
		rates[topics[i]] = math.Pow(10, float64(rng.Intn(61)-30))
	}
	rate := func(tp TopicID) float64 { return rates[tp] }

	theirs := append([]TopicID(nil), topics[:k/2]...)
	theirs = append(theirs, idspace.HashUint64(12345), idspace.HashUint64(67890))
	sortTopics(theirs)

	var want float64
	for trial := 0; trial < 200; trial++ {
		// Build the same logical set with a fresh map and random insertion
		// order each time.
		perm := rng.Perm(k)
		mine := make(map[TopicID]bool, k)
		for _, i := range perm {
			mine[topics[i]] = true
		}
		got := Utility(mine, theirs, rate)
		if trial == 0 {
			want = got
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: utility %x differs from first run %x",
				trial, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

func sortTopics(ts []TopicID) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// perfTestNode builds a joined node for hot-path tests and benchmarks.
func perfTestNode(tb testing.TB, id NodeID, params Params) *Node {
	tb.Helper()
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(1))
	n := NewNode(net, id, params, Hooks{})
	n.Join(nil)
	return n
}

// perfBuffer builds a candidate buffer of size nodes, each subscribed to a
// few of the given topics.
func perfBuffer(size int, topics []TopicID) []tman.Descriptor {
	buf := make([]tman.Descriptor, 0, size)
	for i := 0; i < size; i++ {
		subs := make(SubsSummary, 0, 4)
		for j := 0; j < 4; j++ {
			subs = append(subs, topics[(i*3+j*5)%len(topics)])
		}
		sortTopics(subs)
		buf = append(buf, tman.Descriptor{
			ID:      idspace.HashUint64(uint64(i) + 1),
			Payload: &subs,
		})
	}
	return buf
}

func perfTopics(n int) []TopicID {
	ts := make([]TopicID, n)
	for i := range ts {
		ts[i] = idspace.HashUint64(uint64(i) * 7919)
	}
	return ts
}

// selectFixture is a node on 8 of 16 topics and the candidate buffers
// Algorithm 4 is fed in turn: 32 candidates of 4 topics each. Uniform is
// one buffer with rate == nil, as a simulated node sees an unchanged
// neighbourhood. Otherwise the node gets a map-backed rate function, as the
// benchmark's sim-publish and the paper's rate-aware runs do, and two
// buffers whose payloads are equal but separately allocated, as the wire
// decodes them.
func selectFixture(tb testing.TB, uniform bool) (*Node, [][]tman.Descriptor) {
	n := perfTestNode(tb, 1<<40, Params{RTSize: 15, SWLinks: 1, NetworkSizeEstimate: 1024})
	topics := perfTopics(16)
	for _, tp := range topics[:8] {
		n.Subscribe(tp)
	}
	if uniform {
		return n, [][]tman.Descriptor{perfBuffer(32, topics)}
	}
	rates := make(map[TopicID]float64, len(topics))
	for i, tp := range topics {
		rates[tp] = 1 / float64(i+1)
	}
	n.SetRate(func(t TopicID) float64 { return rates[t] })
	return n, [][]tman.Descriptor{perfBuffer(32, topics), perfBuffer(32, topics)}
}

// TestSelectNeighborsAllocFree pins the steady-state allocation count of
// Algorithm 4 at zero: after warm-up the selection runs entirely in the
// node's reusable scratch buffers, and a wire copy of a known list is
// dropped rather than stored.
func TestSelectNeighborsAllocFree(t *testing.T) {
	for _, uniform := range []bool{true, false} {
		n, buffers := selectFixture(t, uniform)
		// Warm the scratch buffers and caches.
		for _, b := range buffers {
			n.selectNeighbors(b)
		}
		i := 0
		if avg := testing.AllocsPerRun(100, func() {
			n.selectNeighbors(buffers[i%len(buffers)])
			i++
		}); avg != 0 {
			t.Errorf("uniform=%v: selectNeighbors allocates %.2f objects/run, want 0", uniform, avg)
		}
	}
}

// forwardFixture is a node with cnt fresh cluster neighbors all interested
// in the returned topic; the neighbors are not attached to the network, so
// draining the engine exercises only the send/drop path.
func forwardFixture(tb testing.TB, cnt int) (*Node, TopicID) {
	n := perfTestNode(tb, 1<<40, Params{RTSize: 15, SWLinks: 1})
	tp := Topic("bench")
	n.Subscribe(tp)
	far := simnet.Time(1) << 60
	for i := 0; i < cnt; i++ {
		id := idspace.HashUint64(uint64(i) + 1)
		n.reverse[id] = far
		n.profiles[id] = &Profile{ID: id, Subs: []TopicID{tp}}
	}
	return n, tp
}

// TestForwardDataAllocBound pins the dissemination fan-out at one allocation
// per call — the single boxed Notification shared by every target — instead
// of the former one-per-target closure plus per-call map.
func TestForwardDataAllocBound(t *testing.T) {
	const neighbors = 12
	n, tp := forwardFixture(t, neighbors)
	eng := n.eng
	ev := EventID{Publisher: n.id, Seq: 0}
	run := func() {
		n.forwardData(tp, ev, 0, 0, 0, false)
		eng.RunUntil(eng.Now() + 1) // flush the deliveries (drops)
	}
	for i := 0; i < 50; i++ {
		run() // warm scratch, queue capacity, and drop path
	}
	if avg := testing.AllocsPerRun(100, run); avg > 1.5 {
		t.Errorf("forwardData allocates %.2f objects/run for %d targets, want ~1 (one boxed message)",
			avg, neighbors)
	}
}

// BenchmarkSelectNeighbors runs Algorithm 4 on selectFixture's inputs:
// "uniform" and "rate-wire" (map-backed rates, equal payloads copied as the
// wire decodes them).
func BenchmarkSelectNeighbors(b *testing.B) {
	for _, c := range []struct {
		name    string
		uniform bool
	}{{"uniform", true}, {"rate-wire", false}} {
		b.Run(c.name, func(b *testing.B) {
			n, buffers := selectFixture(b, c.uniform)
			for _, buf := range buffers {
				n.selectNeighbors(buf)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.selectNeighbors(buffers[i%len(buffers)])
			}
		})
	}
}

func BenchmarkForwardData(b *testing.B) {
	n, tp := forwardFixture(b, 12)
	eng := n.eng
	ev := EventID{Publisher: n.id, Seq: 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.forwardData(tp, ev, 0, 0, 0, false)
		eng.RunUntil(eng.Now() + 1)
	}
}

// profileFixture is a node subscribed to four topics whose routing table
// holds nbrs neighbours, each with a stored profile proposing itself as
// gateway for one of those topics; recovery switches Params.Recovery (and
// with it quiet heartbeats). Sends are dropped at the network, so calling
// handlers directly exercises only the node.
func profileFixture(tb testing.TB, nbrs int, recovery bool) (*Node, []*Profile) {
	tb.Helper()
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(simnet.Lost))
	n := NewNode(net, 1<<40, Params{RTSize: 15, SWLinks: 1, NetworkSizeEstimate: 1024, Recovery: recovery}, Hooks{})
	n.Join(nil)
	topics := perfTopics(4)
	for _, tp := range topics {
		n.Subscribe(tp)
	}
	profs := make([]*Profile, nbrs)
	seed := make([]tman.Descriptor, nbrs)
	for i := range profs {
		id := idspace.HashUint64(uint64(i) + 1)
		tp := topics[i%len(topics)]
		profs[i] = &Profile{ID: id, Subs: []TopicID{tp},
			Proposals: []TopicProposal{{Topic: tp, Proposal: Proposal{GW: id, Parent: id}}}}
		seed[i] = tman.Descriptor{ID: id, Payload: profs[i].Summary()}
	}
	n.xchg.Seed(seed)
	if n.xchg.Len() != nbrs {
		tb.Fatalf("routing table holds %d of %d neighbours", n.xchg.Len(), nbrs)
	}
	for _, p := range profs {
		n.handleProfile(p.ID, ProfileMsg{Profile: p, Reply: true})
	}
	return n, profs
}

// TestHandleProfileUnchangedAllocFree pins Algorithm 7 for the steady state
// at zero allocations: an arriving copy equal to the stored profile leaves
// the stored pointer (and the routing-table payload pointing into it) in
// place, and the reactive reply is the snapshot's pre-boxed message.
func TestHandleProfileUnchangedAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	n, profs := profileFixture(t, 15, false)
	p := profs[0]
	copyOf := &Profile{ID: p.ID, Subs: slices.Clone(p.Subs), Proposals: slices.Clone(p.Proposals)}
	msg := ProfileMsg{Profile: copyOf}
	n.handleProfile(p.ID, msg)
	if avg := testing.AllocsPerRun(100, func() { n.handleProfile(p.ID, msg) }); avg != 0 {
		t.Errorf("handleProfile of an unchanged profile allocates %.2f objects, want 0", avg)
	}
	if stored, _ := n.KnownProfile(p.ID); stored != p {
		t.Error("an equal profile replaced the stored pointer")
	}
	for _, d := range n.xchg.RTRef() {
		if d.ID == p.ID && d.Payload != any(p.Summary()) {
			t.Errorf("routing-table payload %v does not point into the stored profile", d.Payload)
		}
	}
}

// TestHandleMatchingBeaconAllocFree: under quiet heartbeats the steady
// state is a beacon whose digest matches the stored profile. Handling it
// compares two integers, keeps the stored pointer and sends nothing.
func TestHandleMatchingBeaconAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	n, profs := profileFixture(t, 15, true)
	p := profs[0]
	msg := ProfileMsg{Digest: p.Digest()}
	if avg := testing.AllocsPerRun(100, func() { n.handleProfile(p.ID, msg) }); avg != 0 {
		t.Errorf("handleProfile of a matching beacon allocates %.2f objects, want 0", avg)
	}
	if stored, _ := n.KnownProfile(p.ID); stored != p {
		t.Error("a matching beacon replaced the stored pointer")
	}
}

// TestHeartbeatAllocBound pins one warm heartbeat of a 15-neighbour node at
// zero allocations: while nothing changed, the profile snapshot and its
// boxed heartbeat are reused for every neighbour and every round, and
// Algorithm 5 runs over the node's cached intersections.
func TestHeartbeatAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	n, profs := profileFixture(t, 15, false)
	run := func() {
		for _, p := range profs {
			n.live.Heard(p.ID) // they answered: keep the table intact
		}
		n.heartbeat()
	}
	for i := 0; i < 5; i++ {
		run()
	}
	snapshot := n.buildProfile()
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Errorf("a warm heartbeat allocates %.2f objects, want 0", avg)
	}
	if n.buildProfile() != snapshot {
		t.Error("heartbeat rebuilt an unchanged profile snapshot")
	}
}
