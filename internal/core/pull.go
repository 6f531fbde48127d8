package core

import (
	"sort"

	"vitis/internal/simnet"
	"vitis/internal/telemetry"
)

// Event payload transfer (§III-C): "A node that receives a notification,
// pulls the event from the sender. ... The event is pulled from the same
// path as the notification propagated along."
//
// Publish sends metadata-only notifications; PublishData additionally
// attaches a payload. Each node that receives a HasData notification pulls
// the payload from the notification's sender — including relay nodes, which
// must hold the payload to serve the pulls of their own downstream — so the
// payload travels hop-by-hop along the reverse notification paths.
//
// Two failure concerns shape the bookkeeping:
//
//   - Loss: a dropped PullReq or PullResp would otherwise starve the pull
//     and every downstream waiter queued behind it, so in-flight pulls carry
//     a deadline and the heartbeat resends them a bounded number of times.
//   - Memory: payloads and pull state are evicted together with the
//     seen-set generations (see Node.heartbeat), so a long-lived node does
//     not retain every payload ever published.

// pullMaxAttempts bounds how many times one pull's PullReq is sent in total
// before the pull is abandoned.
const pullMaxAttempts = 4

// pullRetryPeriod is how long a pull waits for its PullResp before the
// heartbeat resends the PullReq: several times the worst-case round trip,
// and phase-shifted from the heartbeat so a retry fires on the second beat
// after loss.
func (n *Node) pullRetryPeriod() simnet.Time { return 3 * n.params.HeartbeatPeriod / 2 }

// Pull wire messages.
type (
	// PullReq asks the notification sender for an event's payload.
	PullReq struct{ Event EventID }
	// PullResp returns the payload.
	PullResp struct {
		Event   EventID
		Payload []byte
	}
)

// pullState tracks one in-flight pull: where to pull from, how often the
// request has been sent, and when the heartbeat should consider it lost.
type pullState struct {
	from     NodeID
	attempts int
	deadline simnet.Time
}

// PublishData publishes an event carrying a payload. Subscribers receive
// the payload through the OnPayload hook after their pull completes; the
// OnDeliver hook still fires at notification time with the hop count.
func (n *Node) PublishData(t TopicID, payload []byte) EventID {
	ev := EventID{Publisher: n.id, Seq: n.pubSeq}
	n.pubSeq++
	pubTime := n.now()
	n.seen.Add(ev)
	n.payloads[ev] = payload
	n.tel.Published.Inc()
	if n.params.Recovery {
		n.recordRecent(t, ev, 0, pubTime, true)
	}
	n.storeAppend(t, ev, 0, pubTime, true, payload)
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
		if n.hooks.OnPayload != nil {
			n.hooks.OnPayload(n.id, ev, payload)
		}
	}
	n.forwardData(t, ev, 0, pubTime, n.id, true)
	return ev
}

// HasPayload reports whether the node has the payload of ev locally.
// Payloads age out together with the seen-set generations.
func (n *Node) HasPayload(ev EventID) bool {
	_, ok := n.payloads[ev]
	return ok
}

// Payload returns the locally held payload of ev, if the node has pulled
// (or published) it.
func (n *Node) Payload(ev EventID) ([]byte, bool) {
	p, ok := n.payloads[ev]
	return p, ok
}

// startPull requests ev's payload from the node we heard the notification
// from.
func (n *Node) startPull(from NodeID, ev EventID) {
	if _, have := n.payloads[ev]; have {
		return
	}
	if _, inflight := n.pulling[ev]; inflight {
		return
	}
	n.pulling[ev] = &pullState{
		from:     from,
		attempts: 1,
		deadline: n.eng.Now() + n.pullRetryPeriod(),
	}
	n.tel.Pulls.Inc()
	n.tracer.Emit(telemetry.SpanEvent{
		Kind: telemetry.KindPullReq, Node: uint64(n.id), Peer: uint64(from),
		Pub: uint64(ev.Publisher), Seq: ev.Seq,
	})
	n.net.Send(n.id, from, PullReq{Event: ev})
}

// retryPulls is the heartbeat's loss recovery for the pull phase: any pull
// whose deadline passed is resent to the original sender, up to
// pullAttempts total sends. An exhausted pull abandons its state —
// including queued downstream waiters, whose own retries are their recovery
// path — so persistent loss cannot pin memory forever.
func (n *Node) retryPulls(now simnet.Time) {
	if len(n.pulling) == 0 {
		return
	}
	// Collect and sort the expired pulls: retries send messages, and a
	// deterministic send order keeps whole runs reproducible.
	var expired []EventID
	for ev, ps := range n.pulling {
		if ps.deadline <= now {
			expired = append(expired, ev)
		}
	}
	sort.Slice(expired, func(i, j int) bool {
		a, b := expired[i], expired[j]
		if a.Publisher != b.Publisher {
			return a.Publisher < b.Publisher
		}
		return a.Seq < b.Seq
	})
	for _, ev := range expired {
		ps := n.pulling[ev]
		if ps.attempts >= n.pullAttempts {
			delete(n.pulling, ev)
			delete(n.wantPayload, ev)
			delete(n.pullWaiters, ev)
			n.tel.PullsAbandoned.Inc()
			continue
		}
		ps.attempts++
		ps.deadline = now + n.pullRetryPeriod()
		n.tel.PullRetries.Inc()
		n.tracer.Emit(telemetry.SpanEvent{
			Kind: telemetry.KindPullRetry, Node: uint64(n.id), Peer: uint64(ps.from),
			Pub: uint64(ev.Publisher), Seq: ev.Seq, Hops: ps.attempts,
		})
		n.net.Send(n.id, ps.from, PullReq{Event: ev})
	}
}

// evictPullState drops payload and pull bookkeeping for events that have
// aged out of the dedup generations: by then dissemination is long over, so
// keeping the data would leak every payload ever published. Called right
// after seen.rotate(), which bounds each map to events from the last two
// generations.
func (n *Node) evictPullState() {
	for ev := range n.payloads {
		if !n.seen.Has(ev) {
			delete(n.payloads, ev)
		}
	}
	for ev := range n.pulling {
		if !n.seen.Has(ev) {
			delete(n.pulling, ev)
		}
	}
	for ev := range n.pullWaiters {
		if !n.seen.Has(ev) {
			delete(n.pullWaiters, ev)
		}
	}
	for ev := range n.wantPayload {
		if !n.seen.Has(ev) {
			delete(n.wantPayload, ev)
		}
	}
}

func (n *Node) handlePullReq(from NodeID, m PullReq) {
	if payload, ok := n.payloads[m.Event]; ok {
		n.net.Send(n.id, from, PullResp{Event: m.Event, Payload: payload})
		return
	}
	// Our own pull has not completed yet: remember the requester and
	// serve it when the payload lands. A retrying requester may already be
	// queued; don't add it twice.
	for _, w := range n.pullWaiters[m.Event] {
		if w == from {
			return
		}
	}
	n.pullWaiters[m.Event] = append(n.pullWaiters[m.Event], from)
}

func (n *Node) handlePullResp(from NodeID, m PullResp) {
	if _, have := n.payloads[m.Event]; have {
		return
	}
	n.payloads[m.Event] = m.Payload
	delete(n.pulling, m.Event)
	n.tel.PayloadBytes.Add(uint64(len(m.Payload)))
	n.tracer.Emit(telemetry.SpanEvent{
		Kind: telemetry.KindPullResp, Node: uint64(n.id), Peer: uint64(from),
		Pub: uint64(m.Event.Publisher), Seq: m.Event.Seq,
	})
	if n.hooks.OnPayload != nil && n.wantPayload[m.Event] {
		n.hooks.OnPayload(n.id, m.Event, m.Payload)
	}
	delete(n.wantPayload, m.Event)
	for _, waiter := range n.pullWaiters[m.Event] {
		n.net.Send(n.id, waiter, PullResp{Event: m.Event, Payload: m.Payload})
	}
	delete(n.pullWaiters, m.Event)
}
