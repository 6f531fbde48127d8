package ring

import (
	"cmp"
	"slices"

	"vitis/internal/idspace"
	"vitis/internal/simnet"
	"vitis/internal/tman"
)

// Soft-state constants of every tree built by lookups (§III-B, §III-D).
const (
	// LookupTTL caps greedy lookup lengths, a safety net while the ring is
	// still converging.
	LookupTTL = 64
	// LeaseBeats is how many heartbeat periods a tree lease lives without
	// a refresh.
	LeaseBeats = 4
)

// Tree is one topic's soft state on lookup paths toward hash(topic): a
// Vitis relay path (§III-B) or an RVR multicast tree. Every role is a
// lease — the parent one greedy hop closer to the rendezvous node, the
// children whose lookups passed through us, and the rendezvous role itself
// — that lives until refreshed or expired. Whether a lookup may register a
// child at all is the caller's rule, not the tree's.
type Tree struct {
	hasParent   bool
	parent      NodeID
	parentUntil simnet.Time
	rendezUntil simnet.Time
	children    []childLease // ascending by id
}

// childLease is one child and the expiry of its lease.
type childLease struct {
	id    NodeID
	until simnet.Time
}

// LeaseParent makes id the parent until the given time.
func (t *Tree) LeaseParent(id NodeID, until simnet.Time) {
	t.hasParent = true
	t.parent = id
	t.parentUntil = until
}

// LeaseRendezvous holds the rendezvous role until the given time.
func (t *Tree) LeaseRendezvous(until simnet.Time) { t.rendezUntil = until }

// LeaseChild registers id as a child until the given time.
func (t *Tree) LeaseChild(id NodeID, until simnet.Time) {
	i, ok := t.child(id)
	if ok {
		t.children[i].until = until
		return
	}
	t.children = slices.Insert(t.children, i, childLease{id, until})
}

// child is the position of id among the children, or where it would go.
func (t *Tree) child(id NodeID) (int, bool) {
	return slices.BinarySearchFunc(t.children, id, func(c childLease, id NodeID) int {
		return cmp.Compare(c.id, id)
	})
}

// Advance is one step of the lookup toward target that refreshes the tree:
// the next greedy hop from self over rt becomes the parent until the given
// time and is returned; when no neighbour is closer than self, self holds
// the rendezvous role until then instead and Advance reports false.
func (t *Tree) Advance(self NodeID, rt []tman.Descriptor, target idspace.ID, until simnet.Time) (NodeID, bool) {
	next, ok := NextHop(self, rt, target)
	if !ok {
		t.LeaseRendezvous(until)
		return 0, false
	}
	t.LeaseParent(next, until)
	return next, true
}

// Parent returns the live parent.
func (t *Tree) Parent(now simnet.Time) (NodeID, bool) {
	if t.hasParent && t.parentUntil > now {
		return t.parent, true
	}
	return 0, false
}

// IsRendezvous reports whether the rendezvous lease is live.
func (t *Tree) IsRendezvous(now simnet.Time) bool { return t.rendezUntil > now }

// AppendLinks appends the live tree links — parent, then children in
// ascending order — to dst.
func (t *Tree) AppendLinks(dst []NodeID, now simnet.Time) []NodeID {
	if p, ok := t.Parent(now); ok {
		dst = append(dst, p)
	}
	for _, c := range t.children {
		if c.until > now {
			dst = append(dst, c.id)
		}
	}
	return dst
}

// Live reports whether the tree still carries any live lease.
func (t *Tree) Live(now simnet.Time) bool {
	if _, ok := t.Parent(now); ok || t.IsRendezvous(now) {
		return true
	}
	for _, c := range t.children {
		if c.until > now {
			return true
		}
	}
	return false
}

// DropPeer forgets a dead peer at once instead of waiting out its leases:
// as a child, and as the parent, in which case it reports true so the
// caller can look up a new one.
func (t *Tree) DropPeer(id NodeID) (wasParent bool) {
	if t.hasParent && t.parent == id {
		t.hasParent = false
		wasParent = true
	}
	if i, ok := t.child(id); ok {
		t.children = slices.Delete(t.children, i, i+1)
	}
	return wasParent
}

// Trees holds a node's trees by topic.
type Trees map[idspace.ID]*Tree

// For returns the topic's tree, creating an empty one.
func (ts Trees) For(topic idspace.ID) *Tree {
	t, ok := ts[topic]
	if !ok {
		t = &Tree{}
		ts[topic] = t
	}
	return t
}

// Live reports whether the node holds live state on the topic's tree.
func (ts Trees) Live(topic idspace.ID, now simnet.Time) bool {
	t, ok := ts[topic]
	return ok && t.Live(now)
}

// Rendezvous reports whether the node is the topic's live rendezvous.
func (ts Trees) Rendezvous(topic idspace.ID, now simnet.Time) bool {
	t, ok := ts[topic]
	return ok && t.IsRendezvous(now)
}

// Expire drops expired child leases, then every tree left with no live
// lease.
func (ts Trees) Expire(now simnet.Time) {
	for topic, t := range ts {
		t.children = slices.DeleteFunc(t.children, func(c childLease) bool { return c.until <= now })
		if !t.Live(now) {
			delete(ts, topic)
		}
	}
}
