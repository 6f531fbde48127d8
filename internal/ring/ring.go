// Package ring is the overlay substrate the three publish/subscribe systems
// share: the ring and small-world slots of a routing table, the greedy next
// hop toward an identifier, the soft-state tree a lookup path leaves behind,
// two-generation event dedup, and heartbeat liveness with suspicion
// tombstones. Vitis (internal/core), RVR (internal/rvr) and OPT
// (internal/opt) keep only the policy that makes each of them that system;
// nothing here branches on who calls it, so the baselines provably run on
// the same overlay code as Vitis (§IV compares RVR on a small-world overlay
// with the same bounded degree).
//
// Like the nodes that own them, none of these types is safe for concurrent
// use: a node is single-threaded and transports never deliver re-entrantly
// (see DESIGN.md "Performance"), which is what lets every scratch buffer
// here be reused across events.
package ring

import (
	"math"
	"math/rand"
	"slices"

	"vitis/internal/idspace"
	"vitis/internal/simnet"
	"vitis/internal/tman"
)

// Period is RVR's and OPT's gossip and heartbeat period δt, the paper's one
// second (§IV-A). Only Vitis's periods are settable (core.Params).
const Period = simnet.Second

// NodeID identifies a node; node and topic ids share one identifier space.
type NodeID = simnet.NodeID

// EventID uniquely identifies a published event.
type EventID struct {
	Publisher NodeID
	Seq       uint64
}

// Descriptors wraps bare ids as payload-less descriptors, the form in which
// bootstrap lists and peer samples enter the T-Man exchanger.
func Descriptors(ids []NodeID) []tman.Descriptor {
	out := make([]tman.Descriptor, 0, len(ids))
	for _, id := range ids {
		out = append(out, tman.Descriptor{ID: id})
	}
	return out
}

// IDs lists the ids of a routing table in slot order, as a fresh slice.
func IDs(rt []tman.Descriptor) []NodeID {
	out := make([]NodeID, len(rt))
	for i, d := range rt {
		out[i] = d.ID
	}
	return out
}

// HarmonicDistance draws a clockwise ring distance from the Symphony
// probability density p(x) ∝ 1/(x ln N) over normalized distances
// [1/N, 1): x = N^(u-1) for u uniform in [0,1). Links drawn this way give
// greedy routing in O(1/k · log²N) hops.
func HarmonicDistance(rng *rand.Rand, n int) uint64 {
	if n < 2 {
		n = 2
	}
	u := rng.Float64()
	x := math.Pow(float64(n), u-1) // in [1/N, 1)
	d := x * math.Pow(2, 64)
	if d >= math.MaxUint64 {
		return math.MaxUint64
	}
	if d < 1 {
		return 1
	}
	return uint64(d)
}

// Slots is the reusable scratch of one routing-table selection: the
// descriptors picked so far, in slot order. A node keeps one and Resets it
// per selection, so steady-state selection allocates nothing. A table holds
// a few dozen slots at most, where scanning them beats hashing their ids.
type Slots struct {
	selected []tman.Descriptor
}

// Reset starts a new selection, keeping the buffer.
func (s *Slots) Reset() { s.selected = s.selected[:0] }

// Take fills the next slot with d.
func (s *Slots) Take(d tman.Descriptor) { s.selected = append(s.selected, d) }

// Taken reports whether id already fills a slot.
func (s *Slots) Taken(id NodeID) bool {
	for i := range s.selected {
		if s.selected[i].ID == id {
			return true
		}
	}
	return false
}

// Len is the number of slots filled.
func (s *Slots) Len() int { return len(s.selected) }

// Selected returns the filled slots in order. The slice is owned by s and
// valid until the next Reset; the T-Man exchanger copies what it keeps.
func (s *Slots) Selected() []tman.Descriptor { return s.selected }

// Ring fills the successor slot — the candidate at minimal clockwise
// distance from self — and then the predecessor slot, minimal clockwise
// distance to self (Algorithm 4 lines 2 and 5).
func (s *Slots) Ring(self NodeID, buffer []tman.Descriptor) {
	if d, ok := s.argmin(keySuccessor, self, 0, buffer); ok {
		s.Take(d)
	}
	if d, ok := s.argmin(keyPredecessor, self, 0, buffer); ok {
		s.Take(d)
	}
}

// SmallWorld fills one sw-neighbour slot (Algorithm 4 line 8): it draws a
// harmonic distance for a network of n nodes and takes the unused
// candidate closest to self plus that distance. The draw happens whether
// or not a candidate is left; it reports false when none is.
func (s *Slots) SmallWorld(rng *rand.Rand, self NodeID, n int, buffer []tman.Descriptor) bool {
	target := self + idspace.ID(HarmonicDistance(rng, n))
	d, ok := s.argmin(keySmallWorld, self, target, buffer)
	if ok {
		s.Take(d)
	}
	return ok
}

// argmin key modes for the slot kinds.
const (
	keySuccessor = iota
	keyPredecessor
	keySmallWorld
)

// argmin returns the untaken candidate minimising the slot kind's key;
// ties break on id for determinism. A switch on kind instead of a key
// closure keeps the per-round path free of closure allocations.
func (s *Slots) argmin(kind int, self, target idspace.ID, buffer []tman.Descriptor) (tman.Descriptor, bool) {
	var best tman.Descriptor
	bestKey := uint64(math.MaxUint64)
	found := false
	for _, d := range buffer {
		if s.Taken(d.ID) {
			continue
		}
		var k uint64
		switch kind {
		case keySuccessor:
			k = idspace.CWDistance(self, d.ID)
		case keyPredecessor:
			k = idspace.CWDistance(d.ID, self)
		default:
			k = idspace.Distance(d.ID, target)
		}
		if !found || k < bestKey || (k == bestKey && d.ID < best.ID) {
			best, bestKey, found = d, k, true
		}
	}
	return best, found
}

// NextHop is one greedy step of a small-world lookup: the routing-table
// neighbour strictly closer to target than self, minimising ring distance.
// It reports false when self is closest, where the lookup ends.
func NextHop(self NodeID, rt []tman.Descriptor, target idspace.ID) (NodeID, bool) {
	best := self
	for _, d := range rt {
		if idspace.Closer(d.ID, best, target) {
			best = d.ID
		}
	}
	if best == self {
		return 0, false
	}
	return best, true
}

// Fanout turns ids into the send list of one dissemination step: sorted
// and deduplicated in place for a deterministic send order, without
// exclude (the peer the event came from) and self.
func Fanout(ids []NodeID, exclude, self NodeID) []NodeID {
	slices.Sort(ids)
	ids = slices.Compact(ids)
	w := 0
	for _, id := range ids {
		if id == exclude || id == self {
			continue
		}
		ids[w] = id
		w++
	}
	return ids[:w]
}
