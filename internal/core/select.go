package core

import (
	"math/bits"
	"slices"

	"vitis/internal/ring"
	"vitis/internal/tman"
)

// Utility is the paper's Eq. 1 preference function: the publication-rate
// mass of the subscription intersection divided by that of the union.
// rate(t) weights each topic; a nil rate function means uniform rates, which
// reduces the utility to the Jaccard overlap. mySubs is a set, theirSubs a
// sorted duplicate-free list (as carried in profiles).
//
// Weights are accumulated in sorted topic order, so the result is a pure
// function of the set contents: the previous implementation iterated mySubs
// in Go map order, which with a non-uniform rate function could flip the
// low bits of the sum — and thus the neighbor ranking — between runs of the
// same seed.
func Utility(mySubs map[TopicID]bool, theirSubs []TopicID, rate func(TopicID) float64) float64 {
	mine := make([]TopicID, 0, len(mySubs))
	for t := range mySubs {
		mine = append(mine, t)
	}
	slices.Sort(mine)
	return utilitySorted(mine, weightSum(mine, rate), theirSubs, rate)
}

// weightSum is the rate mass of a subscription list, accumulated in list
// order (callers pass sorted lists, making the float sum deterministic).
func weightSum(ts []TopicID, rate func(TopicID) float64) float64 {
	if rate == nil {
		return float64(len(ts))
	}
	var s float64
	for _, t := range ts {
		s += rate(t)
	}
	return s
}

// utilitySorted is the allocation-free core of Eq. 1: a two-pointer merge of
// two sorted subscription lists. myWeight must be weightSum(mine, rate) —
// the node caches it instead of re-deriving it per candidate per round.
// Intersection and "their" mass accumulate in theirs-order, exactly as the
// map-based implementation did, so results are bit-identical for sorted
// inputs (and deterministic, unlike map iteration, for the "mine" mass).
func utilitySorted(mine []TopicID, myWeight float64, theirs []TopicID, rate func(TopicID) float64) float64 {
	if len(mine) == 0 && len(theirs) == 0 {
		return 0
	}
	var inter, theirsW float64
	i, j := 0, 0
	if rate == nil {
		n := 0
		for i < len(mine) && j < len(theirs) {
			switch {
			case mine[i] == theirs[j]:
				n++
				i++
				j++
			case mine[i] < theirs[j]:
				i++
			default:
				j++
			}
		}
		inter, theirsW = float64(n), float64(len(theirs))
	} else {
		for i < len(mine) && j < len(theirs) {
			switch {
			case mine[i] == theirs[j]:
				w := rate(theirs[j])
				inter += w
				theirsW += w
				i++
				j++
			case mine[i] < theirs[j]:
				i++
			default:
				theirsW += rate(theirs[j])
				j++
			}
		}
		for ; j < len(theirs); j++ {
			theirsW += rate(theirs[j])
		}
	}
	union := myWeight + theirsW - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// scored pairs a candidate with its computed preference for the friend
// ranking; kept in a reusable per-node scratch slice.
type scored struct {
	d tman.Descriptor
	u float64
}

// selScratch holds selectNeighbors' reusable buffers (rest holds the
// best friend candidates while they are ranked). One instance per node;
// valid because a node is single-threaded and selection never re-enters
// itself (see DESIGN.md "Performance").
type selScratch struct {
	slots ring.Slots
	rest  []scored
}

// selectNeighbors is Algorithm 4. Given the deduplicated candidate buffer
// (never containing self), it picks the successor, the predecessor, k
// sw-neighbors at harmonically drawn distances, and fills the remaining
// slots with the highest-utility friends.
//
// The returned slice is owned by the node's scratch and valid until the next
// call; the T-Man exchanger copies what it keeps.
func (n *Node) selectNeighbors(buffer []tman.Descriptor) []tman.Descriptor {
	// Drop candidates we recently detected as dead (their descriptors keep
	// circulating), and refresh subscription knowledge from payloads so
	// utilities and dissemination see the freshest membership info.
	buffer = n.live.DropSuspects(buffer, n.eng.Now())
	if len(buffer) == 0 {
		return nil
	}
	for _, d := range buffer {
		n.markNamed(d.ID)
		if subs, ok := payloadSubs(d); ok {
			n.recordSubs(d.ID, subs)
		}
	}

	// Successor and predecessor (Algorithm 4 lines 2 and 5), then k
	// sw-neighbors at RANDOM-DISTANCE (line 8).
	sl := &n.sel.slots
	sl.Reset()
	sl.Ring(n.id, buffer)
	for i := 0; i < n.params.SWLinks; i++ {
		sl.SmallWorld(n.rng, n.id, n.params.NetworkSizeEstimate, buffer)
	}
	// Friends by descending utility (lines 11–15); ties break on id for
	// determinism. Candidates with unknown subscriptions score zero but
	// can still fill otherwise-empty slots, keeping young overlays
	// connected. Only the RTSize-Len() best are kept, in rank order.
	mine, myWeight := n.subsView()
	free := n.params.RTSize - sl.Len()
	top := n.sel.rest[:0]
	for _, d := range buffer {
		if sl.Taken(d.ID) {
			continue
		}
		u := n.utilityOf(d, mine, myWeight)
		if n.proximity != nil && n.proximityWeight > 0 {
			u = (1-n.proximityWeight)*u + n.proximityWeight*n.proximity(d.ID)
		}
		top = keepBest(top, scored{d: d, u: u}, free)
	}
	for _, s := range top {
		sl.Take(s.d)
	}
	n.sel.rest = top
	return sl.Selected()
}

// ranksBefore is the friend order: higher utility first, then lower id.
func (s scored) ranksBefore(o scored) bool {
	return s.u > o.u || s.u == o.u && s.d.ID < o.d.ID
}

// keepBest inserts c into top, which holds at most k candidates in rank
// order, dropping the last one when top is full and c outranks it.
func keepBest(top []scored, c scored, k int) []scored {
	if len(top) >= k {
		if k <= 0 || !c.ranksBefore(top[k-1]) {
			return top
		}
		top = top[:k-1]
	}
	i := len(top)
	top = append(top, c)
	for ; i > 0 && c.ranksBefore(top[i-1]); i-- {
		top[i] = top[i-1]
	}
	top[i] = c
	return top
}

// subsOf extracts a candidate's subscription list from its descriptor
// payload, falling back to the profile store for candidates whose payload
// has not propagated yet.
func (n *Node) subsOf(d tman.Descriptor) []TopicID {
	if subs, ok := payloadSubs(d); ok {
		return subs
	}
	if p := n.profiles[d.ID]; p != nil {
		return p.Subs
	}
	if k, ok := n.knownSubs[d.ID]; ok {
		return k.subs
	}
	return nil
}

// knownSubs is a candidate's subscription list with its cached Eq. 1
// utility u against the node's current sorted list and rate mass, or
// unscored. recordSubs resets u when the list changes and subsView resets
// every u when the node's own list or rate function does.
type knownSubs struct {
	subs []TopicID
	u    float64
}

// knownSubsBeats is how many heartbeats one knownSubs generation lasts: an
// entry whose id no T-Man buffer names for that long ages out, and one that
// is named again is recorded afresh from its payload.
const knownSubsBeats = 30

// namedMinWords is the smallest named bitset, 1024 bits; ageKnownSubs grows
// it to about four bits per entry kept, so that few ids share a bit.
const namedMinWords = 16

// namedBit locates id's bit in the named bitset: its word and mask.
func (n *Node) namedBit(id NodeID) (*uint64, uint64) {
	b := uint64(id) & uint64(64*len(n.named)-1)
	return &n.named[b/64], 1 << (b % 64)
}

// markNamed notes that a selection's buffer named id in this generation.
func (n *Node) markNamed(id NodeID) {
	w, bit := n.namedBit(id)
	*w |= bit
}

// ageKnownSubs ends a generation: it drops every knownSubs entry whose id
// no buffer named in it and clears the named bitset, grown to a power of
// two of words with about four bits per entry kept.
func (n *Node) ageKnownSubs() {
	for id := range n.knownSubs {
		if w, bit := n.namedBit(id); *w&bit == 0 {
			delete(n.knownSubs, id)
		}
	}
	if words := bitWords(4 * len(n.knownSubs)); words > len(n.named) {
		n.named = make([]uint64, 1<<bits.Len(uint(words-1)))
	} else {
		clear(n.named)
	}
}

// unscored marks a knownSubs entry whose utility has not been computed;
// Eq. 1 never yields a negative value.
const unscored = -1

// utilityOf is Eq. 1 for candidate d, where mine and myWeight come from
// subsView. It answers from the candidate's knownSubs entry when that entry
// holds the list subsOf(d) ranks, scoring the entry on first use; any other
// list is scored afresh and nothing is stored.
func (n *Node) utilityOf(d tman.Descriptor, mine []TopicID, myWeight float64) float64 {
	subs := n.subsOf(d)
	k, ok := n.knownSubs[d.ID]
	if !ok || !sameSubs(k.subs, subs) {
		return utilitySorted(mine, myWeight, subs, n.rate)
	}
	if k.u < 0 {
		k.u = utilitySorted(mine, myWeight, k.subs, n.rate)
		n.knownSubs[d.ID] = k
	}
	return k.u
}

// sameSubs reports whether two subscription lists are equal: the same
// backing array (a payload pointing into one profile) or, for a copy the
// wire decoded, the same topics.
func sameSubs(a, b []TopicID) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0] || slices.Equal(a, b)
}
