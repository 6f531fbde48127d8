package core

import (
	"slices"

	"vitis/internal/ring"
	"vitis/internal/simnet"
)

// Failure recovery beyond the paper's baseline self-healing (§III-D). The
// plain protocol already absorbs churn through leases: missed heartbeats
// evict neighbors, relay soft state expires, and gossip re-fills the
// routing table. What leases cannot restore is *history* — a node that sat
// behind a partition has permanently missed the notifications flooded while
// it was unreachable, because dissemination only ever targets current
// neighbors. The extensions in this file (gated by Params.Recovery) close
// that gap:
//
//   - Eviction-time relay repair: when a relay parent is evicted, the stale
//     parent edge is dropped immediately — instead of blackholing events
//     until its lease expires — and a gateway re-issues its rendezvous
//     lookup right away.
//   - Lost-peer tracking: evicted peers are remembered (bounded) so that a
//     peer speaking again is recognized as a recovery, counted, and asked
//     for a replay.
//   - Event replay: nodes retain a bounded ring of recently seen events per
//     subscribed topic; a recovering or rejoining peer asks its neighbors
//     for a ReplayReq and receives the retained notifications, which flow
//     through the normal dissemination path (dedup, delivery, forwarding).
//   - Rejoin: a node that detected its own isolation can be re-seeded with
//     fresh bootstrap peers without restarting its protocol timers.

// ReplayReq asks a recovered neighbor to re-send notifications for the
// requester's topics. The receiver answers with plain Notification messages
// for the recent events it retained, so replayed traffic is
// indistinguishable from live dissemination downstream.
type ReplayReq struct {
	// Topics the requester wants replayed, sorted ascending (the wire
	// codec enforces canonical order).
	Topics []TopicID
}

// WireSize implements simnet.Sized.
func (m ReplayReq) WireSize() int { return 2 + 8*len(m.Topics) }

// replayRecord is one retained event: enough to reconstruct the
// notification that announced it, publish timestamp included so replayed
// deliveries still measure true end-to-end latency.
type replayRecord struct {
	ev      EventID
	hops    int
	pubTime int64
	hasData bool
}

// lostPeersCap bounds the evicted-peer memory; eviction is rare, so the cap
// only matters for very long-lived nodes facing heavy churn.
const lostPeersCap = 256

// recordLost remembers an evicted peer so its return can be recognized as a
// recovery. Bounded: when full, the oldest entry is dropped.
func (n *Node) recordLost(id NodeID, now simnet.Time) {
	if len(n.lost) >= lostPeersCap {
		var oldest NodeID
		oldestAt := simnet.Time(1<<63 - 1)
		for p, at := range n.lost {
			if at < oldestAt || (at == oldestAt && p < oldest) {
				oldest, oldestAt = p, at
			}
		}
		delete(n.lost, oldest)
	}
	n.lost[id] = now
}

// onNeighborLost repairs soft state that routed through an evicted
// neighbor: relay parents pointing at it are dropped immediately (instead
// of blackholing events until the lease expires), a gateway re-issues its
// rendezvous lookup at once, and child leases held by the dead node are
// cleared. Topics are visited in sorted order so the repair lookups keep
// runs deterministic.
func (n *Node) onNeighborLost(id NodeID) {
	var repair []TopicID
	for t, rs := range n.relays {
		if rs.DropPeer(id) {
			if p, ok := n.proposals[t]; ok && p.GW == n.id {
				repair = append(repair, t)
			}
		}
	}
	slices.Sort(repair)
	for _, t := range repair {
		n.tel.RelaysRepaired.Inc()
		n.requestRelay(t)
	}
}

// replayAttempts is how many times in total a recovered peer is asked for a
// replay: the first request fires immediately, the rest ride successive
// heartbeats. Replay requests cross the same lossy links that caused the
// outage, so one shot would leave full recovery to chance; duplicate
// answers are absorbed by the dedup layer.
const replayAttempts = 3

// onPeerRecovered runs when a previously evicted peer (or the first peer
// after an isolation spell) speaks again: count it and ask it to replay the
// events we may have missed.
func (n *Node) onPeerRecovered(id NodeID) {
	n.tel.NeighborsRecovered.Inc()
	n.replayAsk[id] = replayAttempts - 1
	n.requestReplay(id)
}

// retryReplays re-sends the replay requests still owed, on the heartbeat
// cadence, in sorted order for deterministic runs.
func (n *Node) retryReplays() {
	if len(n.replayAsk) == 0 {
		return
	}
	ids := make([]NodeID, 0, len(n.replayAsk))
	for id := range n.replayAsk {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		n.requestReplay(id)
		if n.replayAsk[id]--; n.replayAsk[id] <= 0 {
			delete(n.replayAsk, id)
		}
	}
}

// requestReplay asks one peer to re-send recent notifications for our
// subscribed topics.
func (n *Node) requestReplay(to NodeID) {
	subs := n.sortedSubs()
	if len(subs) == 0 {
		return
	}
	n.tel.ReplayRequests.Inc()
	n.net.Send(n.id, to, ReplayReq{Topics: append([]TopicID(nil), subs...)})
}

// recordRecent retains one event for future replay; bounded per topic by
// ReplayDepth (oldest dropped).
func (n *Node) recordRecent(t TopicID, ev EventID, hops int, pubTime int64, hasData bool) {
	ring := append(n.recent[t], replayRecord{ev: ev, hops: hops, pubTime: pubTime, hasData: hasData})
	if excess := len(ring) - n.params.ReplayDepth; excess > 0 {
		ring = ring[:copy(ring, ring[excess:])]
	}
	n.recent[t] = ring
}

// inRecent reports whether ev is retained in t's replay ring. It backs the
// dedup of replayed notifications: the rings hold events far longer than
// the seen-set generations, so anything a peer can replay at us is also
// something we can recognize as already handled. Linear in ReplayDepth,
// but only consulted for events that already missed the seen-set.
func (n *Node) inRecent(t TopicID, ev EventID) bool {
	for _, rec := range n.recent[t] {
		if rec.ev == ev {
			return true
		}
	}
	return false
}

// antiEntropySweep asks one routing-table neighbor — rotating through the
// table round-robin — to replay its recent events. Suspicion-driven replay
// (onPeerRecovered) repairs the gaps the node knows about; the sweep
// repairs the ones it cannot see, i.e. notifications lost to plain packet
// loss with every forwarder's copy dropped. Almost all replayed events die
// in the dedup layer; the few survivors are exactly the ones nothing else
// would have re-sent.
func (n *Node) antiEntropySweep() {
	rt := n.xchg.RTRef()
	if len(rt) == 0 {
		return
	}
	n.aeIndex = (n.aeIndex + 1) % len(rt)
	n.requestReplay(rt[n.aeIndex].ID)
}

// handleReplayReq answers a replay request with the notifications retained
// for the requested topics (those we subscribe to or publish on). HasData
// is only kept where the payload is still cached, so the requester never
// starts pulls that cannot be served.
func (n *Node) handleReplayReq(from NodeID, m ReplayReq) {
	for _, t := range m.Topics {
		for _, rec := range n.recent[t] {
			n.tel.ReplayServed.Inc()
			n.net.Send(n.id, from, Notification{
				Topic: t, Event: rec.ev, Hops: rec.hops + 1, PubTime: rec.pubTime,
				HasData: rec.hasData && n.HasPayload(rec.ev),
			})
		}
	}
}

// Isolated reports whether the node has joined but currently knows no live
// neighbor at all — an empty routing table and no fresh reverse neighbors.
// A partitioned or long-suspected node ends up here; embedders poll it to
// decide when to Rejoin.
func (n *Node) Isolated() bool {
	if n.stopped || n.xchg == nil {
		return false
	}
	if n.xchg.Len() > 0 {
		return false
	}
	now := n.eng.Now()
	for _, exp := range n.reverse {
		if exp > now {
			return false
		}
	}
	return true
}

// Rejoin re-seeds a running node's membership layers with fresh peers —
// the recovery counterpart of Join for a node that found itself isolated
// (for example after a long partition, when every neighbor evicted it and
// vice versa). Timers keep running; the peers are merged into the sampler
// view and offered to the topology exchanger, their tombstones are lifted,
// and (with Recovery) each is asked to replay missed events.
func (n *Node) Rejoin(peers []NodeID) {
	if n.stopped || n.sampler == nil {
		return
	}
	fresh := make([]NodeID, 0, len(peers))
	for _, id := range peers {
		if id != n.id {
			fresh = append(fresh, id)
		}
	}
	if len(fresh) == 0 {
		return
	}
	slices.Sort(fresh)
	fresh = slices.Compact(fresh)
	for _, id := range fresh {
		n.live.Unsuspect(id)
		delete(n.lost, id)
	}
	n.sampler.Seed(fresh)
	n.xchg.Seed(ring.Descriptors(fresh))
	n.tel.Rejoins.Inc()
	if n.params.Recovery {
		for _, id := range fresh {
			n.replayAsk[id] = replayAttempts - 1
			n.requestReplay(id)
		}
	}
}
