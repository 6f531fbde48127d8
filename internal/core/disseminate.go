package core

import (
	"vitis/internal/ring"
	"vitis/internal/simnet"
	"vitis/internal/telemetry"
)

// Publish creates a new metadata-only event on topic t and starts its
// dissemination (§III-C): the notification floods inside the publisher's
// cluster through interested neighbors and crosses to other clusters over
// the relay paths. Use PublishData to attach a payload that subscribers
// pull hop-by-hop. The returned EventID lets the caller correlate
// deliveries.
func (n *Node) Publish(t TopicID) EventID {
	ev := EventID{Publisher: n.id, Seq: n.pubSeq}
	n.pubSeq++
	pubTime := n.now()
	n.seen.Add(ev)
	n.tel.Published.Inc()
	if n.params.Recovery {
		n.recordRecent(t, ev, 0, pubTime, false)
	}
	n.storeAppend(t, ev, 0, pubTime, false, nil)
	n.tracer.Emit(telemetry.SpanEvent{
		Kind: telemetry.KindPublish, Node: uint64(n.id),
		Topic: uint64(t), Pub: uint64(ev.Publisher), Seq: ev.Seq,
	})
	if n.subs[t] {
		n.tel.Deliveries.Inc()
		n.tracer.Emit(telemetry.SpanEvent{
			Kind: telemetry.KindDeliver, Node: uint64(n.id),
			Topic: uint64(t), Pub: uint64(ev.Publisher), Seq: ev.Seq,
		})
		if n.hooks.OnDeliver != nil {
			n.hooks.OnDeliver(n.id, t, ev, 0)
		}
	}
	n.forwardData(t, ev, 0, pubTime, n.id, false)
	return ev
}

// handleNotification processes a received event notification: account for
// the traffic, deduplicate, deliver if subscribed, pull the payload if one
// exists, and keep forwarding.
func (n *Node) handleNotification(from NodeID, m Notification) {
	interested := n.subs[m.Topic]
	n.tel.Notifications.Inc()
	if !interested {
		n.tel.Uninterested.Inc()
	}
	if n.hooks.OnNotification != nil {
		n.hooks.OnNotification(n.id, m.Topic, interested)
	}
	dup := n.seen.Has(m.Event)
	if !dup && n.params.Recovery && n.inRecent(m.Topic, m.Event) {
		// Replayed events can outlive the seen-set generations; the replay
		// ring is the long-memory dedup that keeps resurrected history
		// from recirculating (see recovery.go).
		dup = true
	}
	n.tracer.Emit(telemetry.SpanEvent{
		Kind: telemetry.KindRecv, Node: uint64(n.id), Peer: uint64(from),
		Topic: uint64(m.Topic), Pub: uint64(m.Event.Publisher), Seq: m.Event.Seq,
		Hops: m.Hops, Flag: dup,
	})
	if dup {
		n.tel.Duplicates.Inc()
		return
	}
	n.seen.Add(m.Event)
	if n.params.Recovery && interested {
		n.recordRecent(m.Topic, m.Event, m.Hops, m.PubTime, m.HasData)
	}
	if n.store != nil && (interested || n.IsRelay(m.Topic)) {
		// Persist what this node delivers or relays: both roles serve
		// catch-up requests for the topic later.
		n.storeAppend(m.Topic, m.Event, m.Hops, m.PubTime, m.HasData, nil)
	}
	if interested {
		n.tel.Deliveries.Inc()
		n.tel.DeliveryHops.Observe(float64(m.Hops))
		n.observeLatency(n.tel.DeliveryLatency, m.PubTime)
		n.tracer.Emit(telemetry.SpanEvent{
			Kind: telemetry.KindDeliver, Node: uint64(n.id), Peer: uint64(from),
			Topic: uint64(m.Topic), Pub: uint64(m.Event.Publisher), Seq: m.Event.Seq,
			Hops: m.Hops,
		})
		if n.hooks.OnDeliver != nil {
			n.hooks.OnDeliver(n.id, m.Topic, m.Event, m.Hops)
		}
	}
	if m.HasData {
		// Every receiver pulls — relay nodes included, since their own
		// downstream will pull from them; that is precisely the
		// bandwidth cost of relaying the paper sets out to reduce.
		if n.subs[m.Topic] {
			n.wantPayload[m.Event] = true
		}
		n.startPull(from, m.Event)
	}
	n.forwardData(m.Topic, m.Event, m.Hops, m.PubTime, from, m.HasData)
}

// observeLatency records one publish→deliver latency into h: the gap in
// seconds between the publisher's clock at publish time and this node's
// clock now. A publish time from the future is cross-process clock skew,
// not a latency: it is counted in ClockSkew and left out of the histogram,
// where a 0 s sample would drag the percentiles down. Nil h (telemetry
// disabled) returns before touching the clock.
func (n *Node) observeLatency(h *telemetry.Histogram, pubTime int64) {
	if h == nil {
		return
	}
	d := n.now() - pubTime
	if d < 0 {
		n.tel.ClockSkew.Inc()
		return
	}
	h.Observe(float64(d) / 1000)
}

// forwardData sends the notification to every dissemination link for the
// topic: all cluster neighbors whose profile shows interest, plus the live
// relay parent and children. exclude (the node we got the event from) is
// skipped; other duplicate paths are cut by the receivers' seen-set.
//
// This is the data plane's hottest path (it runs once per notification per
// node), so the target set is built in reusable per-node scratch slices —
// sorted and deduplicated for deterministic send order — instead of a
// per-call map.
func (n *Node) forwardData(t TopicID, ev EventID, hops int, pubTime int64, exclude NodeID, hasData bool) {
	n.fwdNbrs = n.clusterNeighborsInto(n.fwdNbrs)
	ids := n.fwdTargets[:0]
	for _, nb := range n.fwdNbrs {
		if p := n.profiles[nb]; p != nil && p.Subscribed(t) {
			ids = append(ids, nb)
		}
	}
	if rs, ok := n.relays[t]; ok {
		ids = rs.AppendLinks(ids, n.eng.Now())
	}
	ids = ring.Fanout(ids, exclude, n.id)
	n.fwdTargets = ids
	n.tel.Forwards.Add(uint64(len(ids)))
	// Box the notification once: the same value goes to every target, so
	// one interface conversion serves the whole fan-out.
	msg := simnet.Message(Notification{Topic: t, Event: ev, Hops: hops + 1, PubTime: pubTime, HasData: hasData})
	for _, id := range ids {
		n.net.Send(n.id, id, msg)
		n.tracer.Emit(telemetry.SpanEvent{
			Kind: telemetry.KindForward, Node: uint64(n.id), Peer: uint64(id),
			Topic: uint64(t), Pub: uint64(ev.Publisher), Seq: ev.Seq, Hops: hops,
		})
	}
}

// Seen reports whether the node has already received (or published) ev —
// exposed for tests and the hit-ratio collector.
func (n *Node) Seen(ev EventID) bool { return n.seen.Has(ev) }
