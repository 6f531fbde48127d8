package core

import (
	"vitis/internal/ring"
	"vitis/internal/simnet"
	"vitis/internal/telemetry"
)

// relayLease is how long relay-path soft state survives without a refresh
// from a gateway lookup.
func (n *Node) relayLease() simnet.Time { return ring.LeaseBeats * n.params.HeartbeatPeriod }

// requestRelay starts (or refreshes) the relay path from this gateway toward
// the rendezvous node of t by greedily looking up hash(t) (§III-B: "When a
// node recognizes itself as gateway for topic t, it initiates the relay path
// construction by performing a lookup on hash(t)"). It is called every
// heartbeat while the node remains gateway, which doubles as the soft-state
// lease refresh of §III-D.
func (n *Node) requestRelay(t TopicID) {
	n.relayStep(t, n.id, ring.LookupTTL, n.tel.RelayLookups, telemetry.KindRelayLookup)
}

// handleRelay processes one hop of a relay-path lookup: record the sender as
// a child for the topic, and either forward greedily toward hash(t) or, if
// no neighbor is closer, become the rendezvous node.
func (n *Node) handleRelay(from NodeID, m RelayMsg) {
	if m.TTL <= 0 {
		// The lookup died before reaching the rendezvous node. Accepting
		// the sender as a child would graft a half-built path that
		// silently swallows events crossing it, so refuse the
		// registration — the upstream hops' leases expire on their own —
		// and count the failure so the truncation is observable.
		n.relayTTLExhausted++
		n.tel.RelayRefused.Inc()
		n.tracer.Emit(telemetry.SpanEvent{
			Kind: telemetry.KindRelayRefuse, Node: uint64(n.id), Peer: uint64(from),
			Topic: uint64(m.Topic), Pub: uint64(m.Origin),
		})
		return
	}
	n.relays.For(m.Topic).LeaseChild(from, n.eng.Now()+n.relayLease())
	n.relayStep(m.Topic, m.Origin, m.TTL-1, n.tel.RelayHops, telemetry.KindRelayHop)
}

// relayStep advances origin's relay lookup for t by one greedy hop,
// refreshing this node's parent lease, or takes the rendezvous role when no
// neighbor is closer to hash(t). hops counts a forwarded lookup, traced as
// kind and sent on with the given TTL.
func (n *Node) relayStep(t TopicID, origin NodeID, ttl int, hops *telemetry.Counter, kind string) {
	now := n.eng.Now()
	rs := n.relays.For(t)
	wasRendezvous := rs.IsRendezvous(now)
	next, ok := rs.Advance(n.id, n.xchg.RTRef(), t, now+n.relayLease())
	if !ok {
		if !wasRendezvous {
			n.tel.RendezvousTaken.Inc()
			n.tracer.Emit(telemetry.SpanEvent{
				Kind: telemetry.KindRelayRdv, Node: uint64(n.id),
				Topic: uint64(t), Pub: uint64(origin),
			})
		}
		return
	}
	hops.Inc()
	n.tracer.Emit(telemetry.SpanEvent{
		Kind: kind, Node: uint64(n.id), Peer: uint64(next),
		Topic: uint64(t), Pub: uint64(origin), TTL: ttl,
	})
	n.net.Send(n.id, next, RelayMsg{Topic: t, Origin: origin, TTL: ttl})
}
