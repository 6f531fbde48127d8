package core

import (
	"slices"

	"vitis/internal/store"
	"vitis/internal/telemetry"
)

// Store-backed catch-up: the durable companion of recovery.go's replay
// rings. Replay covers outages of a few heartbeats (ReplayDepth recent
// events, in memory); catch-up covers subscribers that were offline for
// hours. Nodes with an attached store.EventStore persist every event they
// publish, deliver, or relay; a (re)joining node walks each subscribed
// topic's history on a peer's store with a ranged cursor, one bounded page
// per heartbeat, so backfill bytes per beat stay capped by
// Params.CatchUpPageBytes no matter how long the node was away.
//
// The cursor (CatchUpReq.After / CatchUpResp.Next) is the *serving peer's*
// store sequence for the topic, so it is only meaningful against that peer:
// rotating to a different server restarts the walk from zero and the dedup
// layer absorbs the overlap. Catch-up is at-least-once by design — the
// mailserver pattern — and caught-up events are delivered locally but never
// forwarded: peers run their own catch-up.

// CatchUpReq asks a peer for the stored events of one topic after a cursor
// position in the peer's per-topic store sequence (0 = from the oldest
// retained record).
type CatchUpReq struct {
	Topic TopicID
	After uint64
}

// CatchUpEvent is one event served from a store: the original notification
// fields — publish timestamp included, so backfill staleness is measurable —
// plus the payload when the server still holds it inline.
type CatchUpEvent struct {
	Event   EventID
	Hops    int
	Time    int64 // publisher's ms clock at publish (store.Record.Time)
	HasData bool
	Payload []byte
}

// CatchUpResp returns one page of a topic's stored history in append order.
// Next is the cursor for the following request; More reports that the
// server retained records past it.
type CatchUpResp struct {
	Topic  TopicID
	Next   uint64
	More   bool
	Events []CatchUpEvent
}

const (
	// catchUpTimeoutBeats is how many heartbeats a page request waits
	// before the peer is presumed dead or storeless and rotated out.
	catchUpTimeoutBeats = 3
	// catchUpMaxAttempts bounds the total page requests per topic before
	// the catch-up is abandoned (counted, so operators see it). Generous
	// because a freshly rejoined node burns early attempts on neighbors
	// that answer empty while T-Man is still pulling its topic clustermates
	// into the routing table; requests are a handful of bytes each.
	catchUpMaxAttempts = 64
	// catchUpEmptyQuorum is how many distinct peers must report a complete
	// empty history before the node accepts there is nothing to catch up.
	catchUpEmptyQuorum = 2
	// catchUpPageCap bounds the served page regardless of configuration so
	// the response body stays inside one wire frame (wire.MaxBody is 65479;
	// the response overhead is 19 bytes, each event costs 33+payload).
	catchUpPageCap = 60000
)

// catchUpState is the client side of one topic's catch-up walk.
type catchUpState struct {
	peer     NodeID
	hasPeer  bool
	after    uint64 // cursor into peer's store sequence
	awaiting bool   // a page request is in flight
	beats    int    // heartbeats since the request was sent
	attempts int    // total page requests sent for this topic
	empties  int    // distinct peers that reported an empty complete history
	gotAny   bool   // current peer served at least one event
	tried    map[NodeID]bool
}

// StartCatchUp begins (or restarts) the catch-up walk for every currently
// subscribed topic. Call it after Join or Rejoin once bootstrap peers are
// known; the walk advances one page per topic per heartbeat and retires
// itself when each topic's history is drained. Safe to call repeatedly —
// topics already catching up keep their cursor.
func (n *Node) StartCatchUp() {
	if n.stopped {
		return
	}
	subs := n.sortedSubs()
	if len(subs) == 0 {
		return
	}
	if n.catchUp == nil {
		n.catchUp = make(map[TopicID]*catchUpState, len(subs))
	}
	for _, t := range subs {
		if n.catchUp[t] == nil {
			n.catchUp[t] = &catchUpState{tried: make(map[NodeID]bool)}
		}
	}
	n.catchUpTick()
}

// CatchUpPending returns how many topics still have an active catch-up
// walk — zero once the node is fully caught up.
func (n *Node) CatchUpPending() int { return len(n.catchUp) }

// catchUpTick advances every active walk by at most one page request. Runs
// on the heartbeat so a node backfilling a long history receives at most
// CatchUpPageBytes per topic per beat; topics are visited in sorted order
// for deterministic runs.
func (n *Node) catchUpTick() {
	topics := make([]TopicID, 0, len(n.catchUp))
	for t := range n.catchUp {
		topics = append(topics, t)
	}
	slices.Sort(topics)
	for _, t := range topics {
		st := n.catchUp[t]
		if !n.subs[t] {
			delete(n.catchUp, t)
			continue
		}
		if st.awaiting {
			if st.beats++; st.beats < catchUpTimeoutBeats {
				continue
			}
			// The page never came: peer dead, storeless, or the link is
			// lossy. Rotate; the new peer's cursor starts from zero.
			st.awaiting = false
			st.tried[st.peer] = true
			st.hasPeer = false
			st.after = 0
			st.gotAny = false
		}
		if st.attempts >= catchUpMaxAttempts {
			delete(n.catchUp, t)
			n.tel.CatchUpAbandoned.Inc()
			continue
		}
		if !st.hasPeer {
			peer, ok := n.pickCatchUpPeer(t, st)
			if !ok {
				// Every known neighbor was tried (or none are known yet):
				// clear the blacklist so the next beat can re-ask — the
				// attempt cap still bounds the walk.
				if len(st.tried) > 0 {
					clear(st.tried)
				}
				continue
			}
			st.peer, st.hasPeer = peer, true
		}
		st.attempts++
		st.awaiting = true
		st.beats = 0
		n.tel.CatchUpRequests.Inc()
		n.net.Send(n.id, st.peer, CatchUpReq{Topic: t, After: st.after})
	}
}

// pickCatchUpPeer chooses the next peer to walk t's history on: an untried
// cluster neighbor, preferring ones whose profile shows interest in the
// topic (they store it). Deterministic: clusterNeighborsInto returns sorted
// ids.
func (n *Node) pickCatchUpPeer(t TopicID, st *catchUpState) (NodeID, bool) {
	nbrs := n.clusterNeighborsInto(nil)
	for _, id := range nbrs {
		if st.tried[id] {
			continue
		}
		if p := n.profiles[id]; p != nil && p.Subscribed(t) {
			return id, true
		}
	}
	for _, id := range nbrs {
		if !st.tried[id] {
			return id, true
		}
	}
	return 0, false
}

// handleCatchUpReq serves one page of t's stored history. A storeless node
// answers with an empty complete page, so clients can tell "nothing to
// serve" from silence and rotate quickly.
func (n *Node) handleCatchUpReq(from NodeID, m CatchUpReq) {
	resp := CatchUpResp{Topic: m.Topic, Next: m.After}
	// A server that is itself mid-catch-up for the topic has an
	// incomplete store: serve what it has but never claim completeness.
	// More=true with zero events (a shape a settled server never sends,
	// since ReadRange always returns at least one record when More) tells
	// the client "busy, ask elsewhere" — its empty answer is not evidence
	// that the topic has no history.
	busy := n.catchUp[m.Topic] != nil
	if n.store != nil {
		pageBytes := n.params.CatchUpPageBytes
		if pageBytes > catchUpPageCap {
			pageBytes = catchUpPageCap
		}
		if page, err := n.store.ReadRange(m.Topic, m.After, pageBytes); err == nil {
			resp.Next = page.Next
			resp.More = page.More
			if len(page.Records) > 0 {
				resp.Events = make([]CatchUpEvent, 0, len(page.Records))
				served := 0
				for _, rec := range page.Records {
					e := CatchUpEvent{
						Event:   EventID{Publisher: rec.Publisher, Seq: rec.Seq},
						Hops:    rec.Hops,
						Time:    rec.Time,
						HasData: rec.HasData,
						Payload: rec.Payload,
					}
					if len(e.Payload) > catchUpPageCap-32 {
						// A single stored payload can exceed the frame cap;
						// serve the event metadata-only.
						e.Payload = nil
					}
					if len(e.Payload) == 0 {
						e.Payload = nil
						// Without an inline payload the client would pull
						// from us; only advertise data we can still serve
						// (same discipline as handleReplayReq).
						e.HasData = e.HasData && n.HasPayload(e.Event)
					}
					served += 33 + len(e.Payload)
					resp.Events = append(resp.Events, e)
				}
				n.tel.CatchUpServed.Add(uint64(len(resp.Events)))
				n.tel.CatchUpServedBytes.Add(uint64(served))
			}
		}
	}
	if busy {
		resp.More = true
	}
	n.net.Send(n.id, from, resp)
}

// handleCatchUpResp folds a served page into local state and either
// finishes the topic's walk or leaves the next page for the coming
// heartbeat (which is what bounds backfill bandwidth).
func (n *Node) handleCatchUpResp(from NodeID, m CatchUpResp) {
	st := n.catchUp[m.Topic]
	if st == nil || !st.awaiting || !st.hasPeer || st.peer != from {
		return // stale or unsolicited page
	}
	st.awaiting = false
	st.beats = 0
	for _, e := range m.Events {
		n.acceptCatchUpEvent(from, m.Topic, e)
	}
	if m.More && len(m.Events) == 0 {
		// Busy-server signal: the peer is mid-catch-up itself and has
		// nothing new for us. Rotate without counting the empty — an
		// incomplete store proves nothing about the topic's history.
		st.tried[from] = true
		st.hasPeer = false
		st.after = 0
		st.gotAny = false
		return
	}
	if len(m.Events) > 0 {
		st.gotAny = true
	}
	st.after = m.Next
	if m.More {
		return // next page rides the next heartbeat
	}
	// The page is complete. Whether that retires the walk depends on who
	// answered: only a peer whose profile shows interest in the topic is
	// presumed to hold its full (retained) history — an uninterested
	// neighbor is typically a relay, which stores only the events that
	// happened to route through it, so its records are welcome but its
	// completion proves nothing. Likewise an empty answer only counts
	// toward the retirement quorum from an interested peer, and even then
	// the walk keeps rotating while untried interested neighbors remain,
	// because a freshly (re)started subscriber is empty too. The attempt
	// cap bounds the whole walk regardless.
	interested := false
	if p := n.profiles[from]; p != nil && p.Subscribed(m.Topic) {
		interested = true
	}
	if st.gotAny && interested {
		delete(n.catchUp, m.Topic) // drained a subscriber's full history
		return
	}
	st.tried[from] = true
	st.hasPeer = false
	st.after = 0
	st.gotAny = false
	if interested {
		st.empties++
		if st.empties >= catchUpEmptyQuorum && !n.hasUntriedInterested(m.Topic, st) {
			delete(n.catchUp, m.Topic)
		}
	}
}

// hasUntriedInterested reports whether any cluster neighbor interested in t
// has not served (or timed out on) this walk yet.
func (n *Node) hasUntriedInterested(t TopicID, st *catchUpState) bool {
	for _, id := range n.clusterNeighborsInto(nil) {
		if st.tried[id] {
			continue
		}
		if p := n.profiles[id]; p != nil && p.Subscribed(t) {
			return true
		}
	}
	return false
}

// acceptCatchUpEvent delivers one caught-up event locally: dedup, deliver,
// store, and fetch the payload (inline or by pull) — but never forward.
// Catch-up is a local backfill; peers run their own.
func (n *Node) acceptCatchUpEvent(from NodeID, t TopicID, e CatchUpEvent) {
	ev := e.Event
	if n.seen.Has(ev) || (n.params.Recovery && n.inRecent(t, ev)) {
		return
	}
	n.seen.Add(ev)
	if n.params.Recovery {
		n.recordRecent(t, ev, e.Hops, e.Time, e.HasData)
	}
	n.storeAppend(t, ev, e.Hops, e.Time, e.HasData, e.Payload)
	if !n.subs[t] {
		return // unsubscribed while the walk was in flight
	}
	n.tel.Deliveries.Inc()
	n.tel.CatchUpDelivered.Inc()
	n.tel.DeliveryHops.Observe(float64(e.Hops))
	// Backfilled events land in their own latency series: they are stale by
	// construction and would drown the live p99.
	n.observeLatency(n.tel.CatchUpLatency, e.Time)
	n.tracer.Emit(telemetry.SpanEvent{
		Kind: telemetry.KindDeliver, Node: uint64(n.id), Peer: uint64(from),
		Topic: uint64(t), Pub: uint64(ev.Publisher), Seq: ev.Seq, Hops: e.Hops,
	})
	if n.hooks.OnDeliver != nil {
		n.hooks.OnDeliver(n.id, t, ev, e.Hops)
	}
	if len(e.Payload) > 0 {
		if _, have := n.payloads[ev]; !have {
			n.payloads[ev] = e.Payload
		}
		if n.hooks.OnPayload != nil {
			n.hooks.OnPayload(n.id, ev, e.Payload)
		}
	} else if e.HasData {
		n.wantPayload[ev] = true
		n.startPull(from, ev)
	}
}

// storeAppend persists one event to the attached store. With no store this
// is a single nil check — the zero-cost-off path an allocs test pins.
// Append errors are dropped here: the store counts them itself
// (vitis_store_append_errors_total) and a full disk must not take the
// overlay down with it.
func (n *Node) storeAppend(t TopicID, ev EventID, hops int, pubTime int64, hasData bool, payload []byte) {
	if n.store == nil {
		return
	}
	if last, ok := n.store.LastSeq(t, ev.Publisher); ok && ev.Seq <= last {
		// Advisory restart dedup: this publisher's history for the topic
		// already reaches past ev, so re-storing would duplicate records.
		return
	}
	_, _ = n.store.Append(store.Record{
		Topic:     t,
		Publisher: ev.Publisher,
		Seq:       ev.Seq,
		Hops:      hops,
		Time:      pubTime,
		HasData:   hasData,
		Payload:   payload,
	})
}
