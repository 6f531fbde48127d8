package ring

import (
	"slices"
	"testing"
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

// TestTreeChildrenSortedCachedAndExpiring: live children come back sorted;
// the cache follows new leases and the earliest expiry.
func TestTreeChildrenSortedCachedAndExpiring(t *testing.T) {
	var tr Tree
	tr.LeaseChild(30, 100)
	tr.LeaseChild(10, 20)
	tr.LeaseChild(20, 100)
	if got := tr.Children(0); !slices.Equal(got, []NodeID{10, 20, 30}) {
		t.Fatalf("Children(0) = %v", got)
	}
	if got := tr.Children(20); !slices.Equal(got, []NodeID{20, 30}) {
		t.Errorf("Children(20) = %v: the expired lease is still cached", got)
	}
	tr.LeaseChild(5, 100)
	if got := tr.Children(20); !slices.Equal(got, []NodeID{5, 20, 30}) {
		t.Errorf("Children after a new lease = %v: stale cache", got)
	}
	tr.LeaseParent(40, 100)
	if got := tr.AppendLinks(nil, 20); !slices.Equal(got, []NodeID{40, 5, 20, 30}) {
		t.Errorf("AppendLinks = %v, want parent then children", got)
	}
}

func TestTreeDropPeer(t *testing.T) {
	var tr Tree
	tr.LeaseParent(7, 100)
	tr.LeaseChild(7, 100)
	tr.LeaseChild(8, 100)
	tr.Children(0) // fill the cache
	if !tr.DropPeer(7) {
		t.Error("dropping the parent was not reported")
	}
	if _, ok := tr.Parent(0); ok {
		t.Error("dropped parent still live")
	}
	if got := tr.Children(0); !slices.Equal(got, []NodeID{8}) {
		t.Errorf("children after drop = %v, want [8]", got)
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
