package core

import (
	"math/bits"
	"slices"
	"sync"

	"vitis/internal/idspace"
	"vitis/internal/telemetry"
)

// propCache holds where each cluster neighbour's subscriptions meet the
// node's own, as Algorithm 5 last found them: one entry per neighbour, in
// the order of the sorted neighbour snapshot. An entry's subs is the
// neighbour's Subs the intersection was taken of (nil when none was
// cached), and its words follow those of the entries before it in words: a
// bitset over the node's sorted subscriptions (which i match), then one
// over subs (which k match). The j-th set bit of the one pairs with the
// j-th set bit of the other, since both lists ascend. All of it was taken
// against the node's subscription list of generation gen.
//
// A neighbour's profile is rebuilt whenever one of its proposals changes,
// but its Subs slice is shared copy-on-write by every rebuild, so the
// intersection is keyed by the slice (sameSubs) and not by the profile.
// A node holds the cache of its last heartbeat. The next heartbeat builds
// its cache in one taken from propCaches, a pool all nodes share, and puts
// the old one back: each node keeps one cache, not two, and a warm
// heartbeat allocates nothing.
type propCache struct {
	gen     uint64
	entries []propEntry
	words   []uint64
}

// propCaches holds the caches no node holds at the moment.
var propCaches = sync.Pool{New: func() any { return new(propCache) }}

// propEntry is one neighbour's entry in a propCache.
type propEntry struct {
	id   NodeID
	subs []TopicID
}

// fit returns s emptied with room for n elements. It reallocates, with a
// quarter to spare, when s is too small, and also when s holds more than
// twice what is needed, so that a burst of neighbours while the overlay
// forms does not stay allocated.
func fit[T any](s []T, n int) []T {
	if cap(s) < n || cap(s) > 2*n+8 {
		return make([]T, 0, n+n/4+4)
	}
	return s[:0]
}

// bitWords is the number of 64-bit words a bitset over n items takes.
func bitWords(n int) int { return (n + 63) / 64 }

// span is how many words the entry for a neighbour's Subs list takes in a
// cache built against mw words of the node's own.
func span(subs []TopicID, mw int) int {
	if subs == nil {
		return 0
	}
	return mw + bitWords(len(subs))
}

// appendIntersection appends the two bitsets of mine ∩ theirs — the mine
// one over mw words, then the theirs one — to words.
func appendIntersection(words []uint64, mine []TopicID, mw int, theirs []TopicID) []uint64 {
	base := len(words)
	for range mw + bitWords(len(theirs)) {
		words = append(words, 0)
	}
	m, t := words[base:base+mw], words[base+mw:]
	i, k := 0, 0
	for i < len(mine) && k < len(theirs) {
		switch {
		case mine[i] == theirs[k]:
			m[i/64] |= 1 << (i % 64)
			t[k/64] |= 1 << (k % 64)
			i++
			k++
		case mine[i] < theirs[k]:
			i++
		default:
			k++
		}
	}
	return words
}

// updateProposals is Algorithm 5: for every subscribed topic, adopt the best
// gateway proposal among interested neighbors, subject to loop avoidance and
// the hop threshold d; a node recognising itself as gateway initiates the
// relay path.
//
// The first pass walks the sorted neighbors once and visits, for each, the
// topics it proposes for that the node subscribes to, in ascending order,
// so every topic sees its neighbors in ascending order. A profile proposes
// only for topics it subscribes to, so "interested and proposing" is "in
// Proposals". When a profile proposes for each of its topics (Proposals[k]
// is for Subs[k]: every profile after its owner's first heartbeat), the
// (my index, their index) pairs come from the neighbour's cached
// intersection, carried over from the last heartbeat while its Subs and the
// node's own list stand; any other profile is merged against the sorted
// subscriptions. The second pass does the side effects in ascending topic
// order: relay lookups send messages, and deterministic send order keeps
// whole runs reproducible.
func (n *Node) updateProposals() {
	subs := n.sortedSubs()
	n.propNbrs = n.clusterNeighborsInto(n.propNbrs)
	neighbors := n.propNbrs
	best := n.propBest[:0]
	for range subs {
		best = append(best, Proposal{GW: n.id, Parent: n.id})
	}
	n.propBest = best
	mw := bitWords(len(subs))
	old, cur := n.prop, propCaches.Get().(*propCache)
	cur.gen, cur.entries = n.subsGen, fit(cur.entries, len(neighbors))
	cur.words = fit(cur.words, len(old.words))
	if old.gen != cur.gen {
		old.entries = old.entries[:0]
	}
	oj, off := 0, 0 // the old entry at or after nb, and its first word
	for _, nb := range neighbors {
		for oj < len(old.entries) && old.entries[oj].id < nb {
			off += span(old.entries[oj].subs, mw)
			oj++
		}
		p := n.profiles[nb]
		if p == nil || len(p.Subs) == 0 || len(p.Proposals) != len(p.Subs) {
			cur.entries = append(cur.entries, propEntry{id: nb})
			if p != nil {
				n.mergeProposals(best, subs, nb, p.Proposals, neighbors)
			}
			continue
		}
		base := len(cur.words)
		if oj < len(old.entries) && old.entries[oj].id == nb && sameSubs(old.entries[oj].subs, p.Subs) {
			cur.words = append(cur.words, old.words[off:off+span(p.Subs, mw)]...)
		} else {
			cur.words = appendIntersection(cur.words, subs, mw, p.Subs)
		}
		cur.entries = append(cur.entries, propEntry{id: nb, subs: p.Subs})
		mine, theirs := cur.words[base:base+mw], cur.words[base+mw:]
		tw, tbits := 0, uint64(0)
		for w, mbits := range mine {
			for mbits != 0 {
				i := w*64 + bits.TrailingZeros64(mbits)
				mbits &= mbits - 1
				for tbits == 0 {
					tbits = theirs[tw]
					tw++
				}
				k := (tw-1)*64 + bits.TrailingZeros64(tbits)
				tbits &= tbits - 1
				n.considerProposal(&best[i], nb, p.Proposals[k], neighbors)
			}
		}
	}
	clear(old.entries) // a pooled cache pins no neighbour's list
	propCaches.Put(old)
	n.prop = cur
	for i, t := range subs {
		prop := best[i]
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

// mergeProposals is the first pass of Algorithm 5 for one neighbour whose
// intersection is not cached: its proposals merged against the sorted
// subscriptions.
func (n *Node) mergeProposals(best []Proposal, subs []TopicID, nb NodeID, props []TopicProposal, neighbors []NodeID) {
	i := 0
	for _, tp := range props {
		for i < len(subs) && subs[i] < tp.Topic {
			i++
		}
		if i == len(subs) {
			return
		}
		if subs[i] == tp.Topic {
			n.considerProposal(&best[i], nb, tp, neighbors)
		}
	}
}

// considerProposal weighs neighbour nb's proposal tp against the best one
// found so far for its topic.
func (n *Node) considerProposal(prop *Proposal, nb NodeID, tp TopicProposal, neighbors []NodeID) {
	// Loop avoidance: accept only proposals the neighbor originated itself
	// or whose parent we cannot reach — and never proposals derived from
	// us.
	next := tp.Proposal
	if next.Parent == n.id {
		return
	}
	if next.Parent != nb {
		if _, reach := slices.BinarySearch(neighbors, next.Parent); reach {
			return
		}
	}
	curDis := idspace.Distance(prop.GW, tp.Topic)
	newDis := idspace.Distance(next.GW, tp.Topic)
	if newDis < curDis && next.Hops+1 < n.params.GatewayHops {
		*prop = Proposal{GW: next.GW, Parent: nb, Hops: next.Hops + 1}
	}
	if next.GW == prop.GW && next.Hops+1 < prop.Hops {
		*prop = Proposal{GW: next.GW, Parent: nb, Hops: next.Hops + 1}
	}
}
