package ring

import (
	"math/rand"
	"slices"
	"testing"

	"vitis/internal/idspace"
	"vitis/internal/simnet"
)

// TestTreeAdvanceLeasesParentOrRendezvous: a lookup step leases the next
// greedy hop as parent; with no closer neighbor it holds the rendezvous
// role instead. Both leases end at the given time.
func TestTreeAdvanceLeasesParentOrRendezvous(t *testing.T) {
	var tr Tree
	rt := descs(100, 400, 700)
	next, ok := tr.Advance(500, rt, 390, 50)
	if !ok || next != 400 {
		t.Fatalf("Advance = %v,%v; want 400", next, ok)
	}
	if p, ok := tr.Parent(49); !ok || p != 400 {
		t.Errorf("Parent(49) = %v,%v; want 400", p, ok)
	}
	if _, ok := tr.Parent(50); ok {
		t.Error("parent lease outlived its expiry")
	}
	if tr.IsRendezvous(0) {
		t.Error("a forwarding node claims the rendezvous role")
	}
	if _, ok := tr.Advance(500, rt, 520, 80); ok {
		t.Fatal("the closest node forwarded its own lookup")
	}
	if !tr.IsRendezvous(79) || tr.IsRendezvous(80) {
		t.Error("rendezvous lease not held exactly until its expiry")
	}
}

// TestTreeChildrenSortedAndExpiring: live children come back sorted, a new
// lease shows at once and an expired one is left out.
func TestTreeChildrenSortedAndExpiring(t *testing.T) {
	var tr Tree
	tr.LeaseChild(30, 100)
	tr.LeaseChild(10, 20)
	tr.LeaseChild(20, 100)
	if got := tr.AppendLinks(nil, 0); !slices.Equal(got, []NodeID{10, 20, 30}) {
		t.Fatalf("children at 0 = %v", got)
	}
	if got := tr.AppendLinks(nil, 20); !slices.Equal(got, []NodeID{20, 30}) {
		t.Errorf("children at 20 = %v: the expired lease is still listed", got)
	}
	tr.LeaseChild(5, 100)
	if got := tr.AppendLinks(nil, 20); !slices.Equal(got, []NodeID{5, 20, 30}) {
		t.Errorf("children after a new lease = %v", got)
	}
	tr.LeaseParent(40, 100)
	if got := tr.AppendLinks([]NodeID{1}, 20); !slices.Equal(got, []NodeID{1, 40, 5, 20, 30}) {
		t.Errorf("AppendLinks = %v, want dst, then parent, then children", got)
	}
}

func TestTreeDropPeer(t *testing.T) {
	var tr Tree
	tr.LeaseParent(7, 100)
	tr.LeaseChild(7, 100)
	tr.LeaseChild(8, 100)
	if !tr.DropPeer(7) {
		t.Error("dropping the parent was not reported")
	}
	if _, ok := tr.Parent(0); ok {
		t.Error("dropped parent still live")
	}
	if got := tr.AppendLinks(nil, 0); !slices.Equal(got, []NodeID{8}) {
		t.Errorf("links after drop = %v, want [8]", got)
	}
	if tr.DropPeer(8) {
		t.Error("dropping a child reported a parent")
	}
	if tr.DropPeer(9) {
		t.Error("dropping a stranger reported a parent")
	}
}

// TestTreesExpire: a tree survives while any lease is live and is dropped
// once none is; queries on an absent topic are false, not panics.
func TestTreesExpire(t *testing.T) {
	ts := make(Trees)
	ts.For(1).LeaseChild(10, 50)
	ts.For(1).LeaseParent(11, 30)
	ts.For(2).LeaseRendezvous(20)
	ts.Expire(25)
	if _, ok := ts[2]; ok {
		t.Error("tree with only an expired rendezvous lease kept")
	}
	if !ts.Live(1, 25) || ts.Rendezvous(1, 25) {
		t.Error("topic 1 should be live through its child, without rendezvous")
	}
	ts.Expire(50)
	if len(ts) != 0 {
		t.Errorf("%d trees left after every lease expired", len(ts))
	}
	if ts.Live(3, 0) || ts.Rendezvous(3, 0) {
		t.Error("absent topic reported live")
	}
}

// refTree is the map-based model of Tree: every lease as a plain field or
// map entry, queried by scanning.
type refTree struct {
	hasParent   bool
	parent      NodeID
	parentUntil simnet.Time
	rendezUntil simnet.Time
	children    map[NodeID]simnet.Time
}

func (r *refTree) links(now simnet.Time) []NodeID {
	var out []NodeID
	if r.hasParent && r.parentUntil > now {
		out = append(out, r.parent)
	}
	var kids []NodeID
	for c, exp := range r.children {
		if exp > now {
			kids = append(kids, c)
		}
	}
	slices.Sort(kids)
	return append(out, kids...)
}

func (r *refTree) live(now simnet.Time) bool {
	if (r.hasParent && r.parentUntil > now) || r.rendezUntil > now {
		return true
	}
	for _, exp := range r.children {
		if exp > now {
			return true
		}
	}
	return false
}

// TestTreesMatchMapModel drives random lease, drop and expiry sequences
// through Trees and the map model; links and liveness must agree after
// every step, and a tree is dropped exactly when the model has nothing live.
func TestTreesMatchMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		ts := make(Trees)
		ref := make(map[idspace.ID]*refTree)
		model := func(topic idspace.ID) *refTree {
			r, ok := ref[topic]
			if !ok {
				r = &refTree{children: make(map[NodeID]simnet.Time)}
				ref[topic] = r
			}
			return r
		}
		now := simnet.Time(0)
		for step := 0; step < 300; step++ {
			topic := idspace.ID(rng.Intn(3))
			id := NodeID(rng.Intn(12))
			until := now + simnet.Time(rng.Intn(40))
			switch op := rng.Intn(10); {
			case op < 4:
				ts.For(topic).LeaseChild(id, until)
				model(topic).children[id] = until
			case op < 5:
				ts.For(topic).LeaseParent(id, until)
				r := model(topic)
				r.hasParent, r.parent, r.parentUntil = true, id, until
			case op < 6:
				ts.For(topic).LeaseRendezvous(until)
				model(topic).rendezUntil = until
			case op < 7:
				var got, want bool
				if tr, ok := ts[topic]; ok {
					got = tr.DropPeer(id)
				}
				if r, ok := ref[topic]; ok {
					if r.hasParent && r.parent == id {
						r.hasParent, want = false, true
					}
					delete(r.children, id)
				}
				if got != want {
					t.Fatalf("trial %d step %d: DropPeer(%d) = %v, model %v", trial, step, id, got, want)
				}
			case op < 9:
				now += simnet.Time(rng.Intn(8))
			default:
				ts.Expire(now)
				for tp, r := range ref {
					for c, exp := range r.children {
						if exp <= now {
							delete(r.children, c)
						}
					}
					if !r.live(now) {
						delete(ref, tp)
					}
				}
				if len(ts) != len(ref) {
					t.Fatalf("trial %d step %d: %d trees after Expire, model %d", trial, step, len(ts), len(ref))
				}
				for tp, tr := range ts {
					if len(tr.children) != len(ref[tp].children) {
						t.Fatalf("trial %d step %d topic %d: %d child leases kept after Expire, model %d", trial, step, tp, len(tr.children), len(ref[tp].children))
					}
				}
			}
			for tp := idspace.ID(0); tp < 3; tp++ {
				var got, want []NodeID
				if tr, ok := ts[tp]; ok {
					got = tr.AppendLinks(nil, now)
				}
				if r, ok := ref[tp]; ok {
					want = r.links(now)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d step %d topic %d: links %v, model %v", trial, step, tp, got, want)
				}
				if got, want := ts.Live(tp, now), ref[tp] != nil && ref[tp].live(now); got != want {
					t.Fatalf("trial %d step %d topic %d: Live %v, model %v", trial, step, tp, got, want)
				}
			}
		}
	}
}

// BenchmarkTreeLeaseExpire is one soft-state round of a busy node: 64
// topics, each refreshed by 8 of 24 children, then an expiry sweep.
func BenchmarkTreeLeaseExpire(b *testing.B) {
	ts := make(Trees)
	var links []NodeID
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now := simnet.Time(i)
		for topic := idspace.ID(0); topic < 64; topic++ {
			tr := ts.For(topic)
			for k := 0; k < 8; k++ {
				tr.LeaseChild(NodeID((i*8+k+int(topic))%24), now+4)
			}
			links = tr.AppendLinks(links[:0], now)
		}
		ts.Expire(now)
	}
}
