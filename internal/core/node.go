package core

import (
	"math/rand"
	"slices"

	"vitis/internal/idspace"
	"vitis/internal/ring"
	"vitis/internal/sampling"
	"vitis/internal/simnet"
	"vitis/internal/store"
	"vitis/internal/telemetry"
	"vitis/internal/tman"
)

// disabledMetrics is the shared all-nil bundle used when hooks carry no
// metrics: every observation through it is a nil-receiver no-op, so the many
// nodes of a simulation share one allocation and pay one branch per event.
var disabledMetrics = &telemetry.NodeMetrics{}

// Node is one Vitis participant. It is single-threaded by construction: all
// of its methods run inside simulator events, so no locking is needed.
type Node struct {
	id     NodeID
	net    simnet.Net
	eng    *simnet.Engine
	params Params
	rng    *rand.Rand
	hooks  Hooks
	tel    *telemetry.NodeMetrics
	tracer *telemetry.Tracer
	now    func() int64 // ms clock for event timestamps (hooks.Now or engine time)

	subs map[TopicID]bool
	rate func(TopicID) float64 // nil = uniform

	// Cached views of the subscription set, rebuilt copy-on-write when subs
	// or rate change. subsSorted is shared with outgoing descriptors and
	// profiles (never mutated in place), subsWeight is the Eq. 1 rate mass
	// of the node's own subscriptions — computed once instead of per
	// candidate per gossip round.
	subsSorted []TopicID
	subsWeight float64
	subsDirty  bool
	// profileCache is the node's immutable profile snapshot, shared by
	// heartbeats, reactive replies and the node's own T-Man descriptor;
	// hbMsg and replyMsg are the snapshot boxed once as the two ProfileMsg
	// forms. Invalidated only when the subscription set or a proposal
	// actually changes.
	profileCache    *Profile
	hbMsg, replyMsg simnet.Message
	// Quiet heartbeats (Params.Recovery only; see handleProfile): the
	// snapshot's digest boxed once as a beacon and a beacon reply,
	// snapshots counting rebuilds, and fullSent the snapshot the last full
	// heartbeat round went out for.
	beaconMsg, beaconReplyMsg simnet.Message
	snapshots, fullSent       uint64

	// Reusable scratch buffers for the per-message hot paths. Safe because
	// a node is single-threaded and transports never deliver re-entrantly
	// (see DESIGN.md "Performance"); contents are valid only within one
	// event handler.
	sel        selScratch
	fwdNbrs    []NodeID
	fwdTargets []NodeID
	propNbrs   []NodeID
	propBest   []Proposal

	// Physical-topology extension of the preference function (§III-A2).
	proximity       func(peer NodeID) float64
	proximityWeight float64

	sampler *sampling.Service
	xchg    *tman.Exchanger

	// Heartbeat bookkeeping (Algorithms 6–7): the shared failure detector
	// — neighbor ages and suspicion tombstones for nodes whose heartbeats
	// timed out — and the last profile heard from each peer.
	live     *ring.Liveness
	profiles map[NodeID]*Profile
	// With Recovery, digests holds the Digest of every stored profile and
	// wantsAnswered the peers whose Want this heartbeat period has already
	// answered; both are nil without it.
	digests       map[NodeID]uint64
	wantsAnswered map[NodeID]bool
	// reverse holds expiry times for nodes that recently heartbeated us
	// but are not in our routing table; together with the table they form
	// the (symmetrized) cluster graph used by election and flooding.
	reverse map[NodeID]simnet.Time
	// knownSubs holds, for every candidate a selection has seen with a
	// T-Man payload, its latest subscription list and that list's cached
	// Eq. 1 utility against this node's own (the knownSubs type says when
	// the score is reset). It is never pruned: it grows with every id the
	// node has ever ranked, one 32-byte value each.
	knownSubs map[NodeID]knownSubs
	// lost remembers evicted peers (bounded) past the suspicion tombstone,
	// so a peer returning after a long partition is still recognized as a
	// recovery rather than a stranger (see recovery.go).
	lost map[NodeID]simnet.Time
	// recent retains a bounded ring of events per subscribed topic for
	// replay to recovering peers (Params.Recovery only).
	recent map[TopicID][]replayRecord
	// replayAsk counts the replay requests still owed to each recovered
	// peer: requests travel over the same lossy links that caused the
	// outage, so each peer is asked a bounded number of times on the
	// heartbeat cadence (duplicate answers die in the dedup layer).
	replayAsk map[NodeID]int
	// aeRounds and aeIndex pace the anti-entropy sweep: every
	// AntiEntropyRounds heartbeats, one rotating neighbor is asked for a
	// replay (Params.Recovery only).
	aeRounds, aeIndex int
	// wasIsolated flags that the node found itself with no live neighbor;
	// the first profile to arrive afterwards triggers a replay request.
	wasIsolated bool

	// Gateway election state (Algorithm 5).
	proposals map[TopicID]Proposal

	// Relay-path soft state (§III-B).
	relays ring.Trees

	// Dissemination state (§III-C).
	seen   *ring.Seen
	pubSeq uint64

	// Durable event history (internal/store; nil = disabled). Events this
	// node publishes, delivers, or relays are appended so offline
	// subscribers can catch up from it; catchUp tracks this node's own
	// per-topic catch-up walks (see catchup.go).
	store   store.EventStore
	catchUp map[TopicID]*catchUpState

	// Pull state (§III-C's notify-then-pull data plane). All four maps are
	// evicted alongside the seen-set generations (evictPullState) so they
	// stay bounded over long runs; pulling additionally drives the
	// heartbeat's lost-pull retries.
	payloads    map[EventID][]byte
	pulling     map[EventID]*pullState
	pullWaiters map[EventID][]NodeID
	wantPayload map[EventID]bool
	// pullAttempts bounds the sends of one pull: pullMaxAttempts, which
	// tests may lower.
	pullAttempts int

	// relayTTLExhausted counts relay lookups that died here because their
	// TTL ran out before reaching the rendezvous node (§III-B).
	relayTTLExhausted int

	stopped bool
}

// NewNode creates a node with the given identity. Call Join to put it on the
// network. The net may be the simulator's *simnet.Network or any real
// transport implementing simnet.Net (see internal/transport).
func NewNode(net simnet.Net, id NodeID, params Params, hooks Hooks) *Node {
	p := params.WithDefaults()
	n := &Node{
		id:          id,
		net:         net,
		eng:         net.Engine(),
		params:      p,
		hooks:       hooks,
		subs:        make(map[TopicID]bool),
		live:        ring.NewLiveness(p.HeartbeatPeriod),
		profiles:    make(map[NodeID]*Profile),
		reverse:     make(map[NodeID]simnet.Time),
		knownSubs:   make(map[NodeID]knownSubs),
		lost:        make(map[NodeID]simnet.Time),
		recent:      make(map[TopicID][]replayRecord),
		replayAsk:   make(map[NodeID]int),
		proposals:   make(map[TopicID]Proposal),
		relays:      make(ring.Trees),
		seen:        ring.NewSeen(),
		payloads:    make(map[EventID][]byte),
		pulling:     make(map[EventID]*pullState),
		pullWaiters: make(map[EventID][]NodeID),
		wantPayload: make(map[EventID]bool),
	}
	n.tel = hooks.Metrics
	if n.tel == nil {
		n.tel = disabledMetrics
	}
	n.tracer = hooks.Tracer
	n.now = hooks.Now
	if n.now == nil {
		eng := n.eng
		n.now = func() int64 { return int64(eng.Now()) }
	}
	n.store = hooks.Store
	n.pullAttempts = pullMaxAttempts
	n.rng = net.Engine().DeriveRNG(int64(id))
	if p.Recovery {
		n.digests = make(map[NodeID]uint64)
		n.wantsAnswered = make(map[NodeID]bool)
	}
	return n
}

// ID returns the node's identifier.
func (n *Node) ID() NodeID { return n.id }

// Subscribe adds a topic to the node's profile. Taking effect in the overlay
// structures happens over the following gossip rounds.
func (n *Node) Subscribe(t TopicID) {
	if n.subs[t] {
		return
	}
	n.subs[t] = true
	n.invalidateSubs()
}

// Unsubscribe removes a topic from the profile; the corresponding proposal
// and any relay duty decay via leases.
func (n *Node) Unsubscribe(t TopicID) {
	if !n.subs[t] {
		return
	}
	delete(n.subs, t)
	delete(n.proposals, t)
	n.invalidateSubs()
}

// invalidateSubs marks the cached subscription views stale. The old sorted
// slice is left untouched (copy-on-write): descriptors and profiles already
// sent keep referencing it safely.
func (n *Node) invalidateSubs() {
	n.subsDirty = true
	n.profileCache = nil
}

// Subscribed reports whether the node currently subscribes to t.
func (n *Node) Subscribed(t TopicID) bool { return n.subs[t] }

// Subscriptions returns the sorted subscription list (a copy; the internal
// cache is shared with in-flight profiles).
func (n *Node) Subscriptions() []TopicID {
	return append([]TopicID(nil), n.sortedSubs()...)
}

// SetRate installs the publication-rate estimate rate(t) used by the Eq. 1
// utility function. A nil function means uniform rates. The function must be
// pure (stable per topic): the node caches its own subscription rate mass and
// every candidate's utility score, and recomputes them only on
// SetRate/Subscribe/Unsubscribe or when a candidate's list changes.
func (n *Node) SetRate(rate func(TopicID) float64) {
	n.rate = rate
	n.subsDirty = true
}

// SetProximity enables the physical-topology extension of the preference
// function (§III-A2): friend candidates are ranked by
// (1-weight)·utility + weight·proximity(peer), where proximity returns a
// value in [0,1] (1 = closest). A nil function disables the extension.
func (n *Node) SetProximity(proximity func(peer NodeID) float64, weight float64) {
	if weight < 0 {
		weight = 0
	}
	if weight > 1 {
		weight = 1
	}
	n.proximity = proximity
	n.proximityWeight = weight
}

// Join attaches the node to the network and starts its protocol stacks,
// bootstrapped from the given peers (Algorithm 1).
func (n *Node) Join(bootstrap []NodeID) {
	n.net.Attach(n.id, simnet.HandlerFunc(n.dispatch))

	n.sampler = sampling.New(n.net, n.id,
		sampling.Config{Period: n.params.GossipPeriod, Metrics: &n.tel.Sampler},
		bootstrap, n.rng)

	n.xchg = tman.New(n.net, n.id, n.params.GossipPeriod, tman.Callbacks{
		SelfDescriptor: func() tman.Descriptor {
			return tman.Descriptor{ID: n.id, Payload: n.buildProfile().Summary()}
		},
		SampleNodes: func() []tman.Descriptor {
			return ring.Descriptors(n.sampler.Sample(sampling.SampleSize))
		},
		SelectNeighbors: n.selectNeighbors,
		Metrics:         &n.tel.TMan,
	}, ring.Descriptors(bootstrap), n.rng)

	n.sampler.Start()
	n.xchg.Start()
	n.eng.Every(n.params.HeartbeatPeriod, func() bool {
		if n.stopped {
			return false
		}
		n.heartbeat()
		return true
	})
}

// Leave removes the node from the network immediately (ungraceful, as in
// the churn experiments: neighbors find out through missed heartbeats).
func (n *Node) Leave() {
	n.stopped = true
	if n.sampler != nil {
		n.sampler.Stop()
	}
	if n.xchg != nil {
		n.xchg.Stop()
	}
	n.net.Detach(n.id)
}

// Alive reports whether the node has joined and not left.
func (n *Node) Alive() bool { return !n.stopped && n.net.Alive(n.id) }

// dispatch routes incoming messages to the right protocol layer.
func (n *Node) dispatch(from NodeID, msg simnet.Message) {
	if n.stopped {
		return
	}
	if n.sampler.HandleMessage(from, msg) {
		return
	}
	if n.xchg.HandleMessage(from, msg) {
		return
	}
	switch m := msg.(type) {
	case ProfileMsg:
		n.handleProfile(from, m)
	case RelayMsg:
		n.handleRelay(from, m)
	case Notification:
		n.handleNotification(from, m)
	case PullReq:
		n.handlePullReq(from, m)
	case PullResp:
		n.handlePullResp(from, m)
	case ReplayReq:
		n.handleReplayReq(from, m)
	case CatchUpReq:
		n.handleCatchUpReq(from, m)
	case CatchUpResp:
		n.handleCatchUpResp(from, m)
	}
}

// Deliver implements simnet.Handler, so embedders that wrap the node's
// handler (internal/deploy's membership) can forward messages to it.
func (n *Node) Deliver(from NodeID, msg simnet.Message) { n.dispatch(from, msg) }

// heartbeat is Algorithm 6: refresh proposals, prune stale neighbors, and
// send the profile to every routing-table entry.
func (n *Node) heartbeat() {
	now := n.eng.Now()
	n.updateProposals()
	n.expireState(now)

	// One boxed message serves every heartbeat of the round (and of every
	// later round until the profile changes). Quiet heartbeats send it in
	// full only in the first round after a rebuild, the beacon otherwise.
	n.buildProfile()
	beacon := false
	if n.params.Recovery {
		beacon = n.fullSent == n.snapshots
		n.fullSent = n.snapshots
		clear(n.wantsAnswered)
	}
	hb := n.profileMsg(false, beacon)
	n.live.Beat(n.xchg, now, n.evictNeighbor, func(id NodeID) {
		n.net.Send(n.id, id, hb)
		n.tel.Heartbeats.Inc()
	})
	// Resend pulls whose response is overdue (lost PullReq/PullResp).
	n.retryPulls(now)
	// Advance store catch-up walks, one page per topic per beat. With no
	// walk active (the common case) this is a single map-length check.
	if len(n.catchUp) > 0 {
		n.catchUpTick()
	}
	// Note isolation so the first neighbor heard afterwards is asked for a
	// replay of whatever flooded past us in the meantime.
	if n.params.Recovery {
		if n.Isolated() {
			n.wasIsolated = true
		}
		n.retryReplays()
		if n.aeRounds++; n.aeRounds >= n.params.AntiEntropyRounds {
			n.aeRounds = 0
			n.antiEntropySweep()
		}
	}
	// Bound the dedup memory. Payloads and pull bookkeeping are keyed by
	// the same events, so they are evicted when the generations rotate.
	if n.seen.Tick() {
		n.evictPullState()
	}
	n.updateGauges(now)
}

// evictNeighbor is what eviction by the failure detector means to Vitis:
// forget the peer's profile, count it, and with Recovery remember the peer
// and repair the relay paths through it.
func (n *Node) evictNeighbor(id NodeID) {
	n.dropProfile(id)
	n.tel.NeighborsSuspected.Inc()
	n.tel.NeighborsEvicted.Inc()
	if n.params.Recovery {
		n.recordLost(id, n.eng.Now())
		n.onNeighborLost(id)
	}
}

// updateGauges refreshes the node's state gauges once per heartbeat. With
// telemetry disabled every Set is a nil-receiver no-op.
func (n *Node) updateGauges(now simnet.Time) {
	n.tel.RoutingTableSize.Set(int64(n.xchg.Len()))
	fresh := 0
	for _, exp := range n.reverse {
		if exp > now {
			fresh++
		}
	}
	n.tel.ReverseNeighbors.Set(int64(fresh))
	n.tel.SeenEvents.Set(int64(n.seen.Len()))
	n.tel.PullBacklog.Set(int64(n.PullBookkeepingSize()))
	gw, relays := 0, 0
	for _, p := range n.proposals {
		if p.GW == n.id {
			gw++
		}
	}
	for _, rs := range n.relays {
		if rs.Live(now) {
			relays++
		}
	}
	n.tel.GatewayTopics.Set(int64(gw))
	n.tel.RelayTopics.Set(int64(relays))
	n.tel.CatchUpPending.Set(int64(len(n.catchUp)))
}

// wantMsg asks a peer for its full profile; boxed once for every sender.
var wantMsg simnet.Message = ProfileMsg{Want: true}

// handleProfile is Algorithm 7 plus the reactive reply that makes liveness
// detection symmetric for one-directional routing-table edges. Every
// profile message, whatever it carries, counts as a sign of life; only a
// body replaces the stored profile.
//
// With Recovery the heartbeat is quiet. The reply goes only to senders
// outside our routing table — a table member hears our own heartbeat this
// round anyway — and carries the digest beacon. A beacon whose digest does
// not match the stored profile (or finds none) is answered with a Want, and
// a Want with the full profile, at most once per peer per heartbeat period.
func (n *Node) handleProfile(from NodeID, m ProfileMsg) {
	n.tel.Profiles.Inc()
	n.live.Unsuspect(from) // it speaks, so it lives
	if n.params.Recovery {
		if _, wasLost := n.lost[from]; wasLost {
			delete(n.lost, from)
			n.onPeerRecovered(from)
		} else if n.wasIsolated {
			// First voice after an isolation spell: catch up from it.
			n.onPeerRecovered(from)
		}
		n.wasIsolated = false
	}
	// A profile equal to the stored one keeps the stored pointer: the
	// routing-table payload and earlier descriptors already point into it,
	// and the fresh copy dies young. A message without a body keeps it too.
	want := false
	if p := m.Profile; p != nil {
		if !n.profiles[from].Equal(p) {
			n.profiles[from] = p
			if n.params.Recovery {
				n.digests[from] = p.Digest()
			}
		}
	} else if m.Digest != 0 && n.params.Recovery {
		want = n.digests[from] != m.Digest
	}
	n.reverse[from] = n.eng.Now() + ring.StaleAge*n.params.HeartbeatPeriod
	inTable := n.xchg.Contains(from)
	if inTable {
		n.live.Heard(from)
		if p := n.profiles[from]; p != nil {
			n.xchg.UpdatePayload(from, p.Summary())
		}
	}
	if want {
		n.tel.ProfileWants.Inc()
		n.net.Send(n.id, from, wantMsg)
	}
	switch {
	case !n.params.Recovery:
		if !m.Reply {
			n.net.Send(n.id, from, n.profileMsg(true, false))
		}
	case m.Want:
		if !n.wantsAnswered[from] {
			n.wantsAnswered[from] = true
			n.net.Send(n.id, from, n.profileMsg(true, false))
		}
	case !m.Reply && !inTable:
		n.net.Send(n.id, from, n.profileMsg(true, true))
	}
}

// dropProfile forgets the stored profile of a peer that left both the
// routing table and the reverse neighbours.
func (n *Node) dropProfile(id NodeID) {
	delete(n.profiles, id)
	delete(n.digests, id)
}

// buildProfile returns the node's profile snapshot, rebuilding it only after
// the subscription set or a proposal changed (invalidateSubs,
// updateProposals). The snapshot is immutable and shared by every heartbeat,
// reply and self descriptor until then.
func (n *Node) buildProfile() *Profile {
	if n.profileCache != nil {
		return n.profileCache
	}
	subs := n.sortedSubs()
	p := &Profile{ID: n.id, Subs: subs}
	if len(n.proposals) > 0 {
		p.Proposals = make([]TopicProposal, 0, len(n.proposals))
	}
	for _, t := range subs {
		if prop, ok := n.proposals[t]; ok {
			p.Proposals = append(p.Proposals, TopicProposal{Topic: t, Proposal: prop})
		}
	}
	n.profileCache = p
	n.hbMsg = ProfileMsg{Profile: p}
	n.replyMsg = ProfileMsg{Profile: p, Reply: true}
	if n.params.Recovery {
		n.snapshots++
		d := p.Digest()
		n.beaconMsg = ProfileMsg{Digest: d}
		n.beaconReplyMsg = ProfileMsg{Digest: d, Reply: true}
	}
	return p
}

// profileMsg returns the current snapshot boxed as a heartbeat or a reply,
// in full or as its digest beacon (Recovery only).
func (n *Node) profileMsg(reply, beacon bool) simnet.Message {
	n.buildProfile()
	switch {
	case beacon && reply:
		return n.beaconReplyMsg
	case beacon:
		return n.beaconMsg
	case reply:
		return n.replyMsg
	}
	return n.hbMsg
}

// sortedSubs returns the cached sorted subscription list. Callers must not
// mutate it; mutation of the set allocates a fresh slice (copy-on-write).
func (n *Node) sortedSubs() []TopicID {
	subs, _ := n.subsView()
	return subs
}

// subsView returns the sorted subscription list together with its Eq. 1
// rate mass, rebuilding both if the set or rate function changed. A rebuild
// resets every candidate score cached in knownSubs.
func (n *Node) subsView() ([]TopicID, float64) {
	if n.subsDirty {
		out := make([]TopicID, 0, len(n.subs))
		for t := range n.subs {
			out = append(out, t)
		}
		slices.Sort(out)
		n.subsSorted = out
		n.subsWeight = weightSum(out, n.rate)
		n.subsDirty = false
		for id, k := range n.knownSubs {
			k.u = unscored
			n.knownSubs[id] = k
		}
	}
	return n.subsSorted, n.subsWeight
}

// updateProposals is Algorithm 5: for every subscribed topic, adopt the best
// gateway proposal among interested neighbors, subject to loop avoidance and
// the hop threshold d; a node recognising itself as gateway initiates the
// relay path.
//
// The first pass walks the sorted neighbors once and merges each one's
// proposals against the sorted subscriptions, so every topic sees its
// neighbors in ascending order. A profile proposes only for topics it
// subscribes to, so "interested and proposing" is "in Proposals". The
// second pass does the side effects in ascending topic order: relay
// lookups send messages, and deterministic send order keeps whole runs
// reproducible.
func (n *Node) updateProposals() {
	n.propNbrs = n.clusterNeighborsInto(n.propNbrs)
	neighbors := n.propNbrs
	subs := n.sortedSubs()
	best := n.propBest[:0]
	for range subs {
		best = append(best, Proposal{GW: n.id, Parent: n.id})
	}
	n.propBest = best
	for _, nb := range neighbors {
		p := n.profiles[nb]
		if p == nil {
			continue
		}
		i := 0
		for _, tp := range p.Proposals {
			for i < len(subs) && subs[i] < tp.Topic {
				i++
			}
			if i == len(subs) {
				break
			}
			if subs[i] != tp.Topic {
				continue
			}
			// Loop avoidance: accept only proposals the neighbor
			// originated itself or whose parent we cannot reach —
			// and never proposals derived from us.
			next := tp.Proposal
			if next.Parent == n.id {
				continue
			}
			if next.Parent != nb {
				if _, reach := slices.BinarySearch(neighbors, next.Parent); reach {
					continue
				}
			}
			prop := &best[i]
			curDis := idspace.Distance(prop.GW, tp.Topic)
			newDis := idspace.Distance(next.GW, tp.Topic)
			if newDis < curDis && next.Hops+1 < n.params.GatewayHops {
				*prop = Proposal{GW: next.GW, Parent: nb, Hops: next.Hops + 1}
			}
			if next.GW == prop.GW && next.Hops+1 < prop.Hops {
				*prop = Proposal{GW: next.GW, Parent: nb, Hops: next.Hops + 1}
			}
		}
	}
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

// clusterNeighborsInto appends the ids of nodes forming the (symmetrized)
// gossip neighborhood — routing-table entries plus fresh reverse neighbors —
// into dst[:0] and returns it sorted and deduplicated (determinism). Callers
// own dst; the two hot callers (updateProposals, forwardData) each keep a
// private scratch slice so neither can clobber the other mid-iteration.
func (n *Node) clusterNeighborsInto(dst []NodeID) []NodeID {
	now := n.eng.Now()
	dst = dst[:0]
	for _, d := range n.xchg.RTRef() {
		dst = append(dst, d.ID)
	}
	for id, exp := range n.reverse {
		if exp > now {
			dst = append(dst, id)
		}
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}

// expireState clears reverse-neighbor entries and dead relay state.
func (n *Node) expireState(now simnet.Time) {
	for id, exp := range n.reverse {
		if exp <= now {
			delete(n.reverse, id)
			if !n.xchg.Contains(id) {
				n.dropProfile(id)
			}
		}
	}
	n.relays.Expire(now)
}

// recordSubs caches a subscription list learned from gossip payloads. An
// equal list keeps the stored one and its score, so a wire-decoded copy of
// an unchanged list dies young and the next selection still hits the cache.
func (n *Node) recordSubs(id NodeID, subs []TopicID) {
	if id == n.id {
		return
	}
	if k, ok := n.knownSubs[id]; ok && sameSubs(k.subs, subs) {
		return
	}
	n.knownSubs[id] = knownSubs{subs: subs, u: unscored}
}

// --- Introspection (tests, analysis, examples) ---

// RoutingTable returns the current routing-table node ids in selection order
// (successor, predecessor, sw-neighbors, friends).
func (n *Node) RoutingTable() []NodeID { return ring.IDs(n.xchg.RTRef()) }

// Successor returns the node's current ring successor (first RT slot).
func (n *Node) Successor() (NodeID, bool) {
	rt := n.xchg.RT()
	if len(rt) == 0 {
		return 0, false
	}
	return rt[0].ID, true
}

// Predecessor returns the node's current ring predecessor (second RT slot).
func (n *Node) Predecessor() (NodeID, bool) {
	rt := n.xchg.RT()
	if len(rt) < 2 {
		return 0, false
	}
	return rt[1].ID, true
}

// ProposalFor returns the node's current gateway proposal for t.
func (n *Node) ProposalFor(t TopicID) (Proposal, bool) {
	p, ok := n.proposals[t]
	return p, ok
}

// IsGateway reports whether the node currently considers itself gateway for
// t.
func (n *Node) IsGateway(t TopicID) bool {
	p, ok := n.proposals[t]
	return ok && p.GW == n.id
}

// IsRendezvous reports whether the node currently holds live rendezvous
// state for t.
func (n *Node) IsRendezvous(t TopicID) bool {
	return n.relays.Rendezvous(t, n.eng.Now())
}

// IsRelay reports whether the node holds any live relay state for t.
func (n *Node) IsRelay(t TopicID) bool {
	return n.relays.Live(t, n.eng.Now())
}

// RelayTTLExhausted returns how many relay-path lookups terminated at this
// node with an exhausted TTL — each one a relay path that never reached its
// rendezvous node (observable instead of silently truncated).
func (n *Node) RelayTTLExhausted() int { return n.relayTTLExhausted }

// PendingPulls returns the number of in-flight payload pulls — exposed for
// tests asserting the pull pipeline stays bounded.
func (n *Node) PendingPulls() int { return len(n.pulling) }

// PullBookkeepingSize returns the total entries across the payload and pull
// maps — exposed for tests asserting eviction keeps them bounded.
func (n *Node) PullBookkeepingSize() int {
	return len(n.payloads) + len(n.pulling) + len(n.pullWaiters) + len(n.wantPayload)
}

// KnownProfile returns the last profile heard from id.
func (n *Node) KnownProfile(id NodeID) (*Profile, bool) {
	p, ok := n.profiles[id]
	return p, ok
}
