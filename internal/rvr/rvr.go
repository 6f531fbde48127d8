// Package rvr implements the paper's first baseline: a structured
// RendezVous Routing publish/subscribe system equivalent to Scribe/Bayeux
// with a fixed node degree (§IV: "RVR: a structured rendezvous routing
// solution that builds a multicast tree per topic").
//
// For comparability it shares Vitis's substrates — the same peer sampling
// service, the same T-Man overlay construction, and the same ring slots,
// greedy lookup, soft-state tree, dedup and failure detector
// (internal/ring) — but its neighbor selection is oblivious to
// subscriptions: one predecessor, one successor and RTSize−2 Symphony-style
// small-world links. Each subscriber routes a
// periodic SUBSCRIBE toward hash(topic); the reverse paths form a soft-state
// multicast tree rooted at the rendezvous node. Published events are routed
// to the tree and flooded along it, which drags in every relay node on the
// way — the traffic overhead Vitis is designed to avoid.
package rvr

import (
	"math/rand"
	"slices"

	"vitis/internal/idspace"
	"vitis/internal/ring"
	"vitis/internal/sampling"
	"vitis/internal/simnet"
	"vitis/internal/tman"
)

// NodeID and TopicID live in the shared identifier space.
type (
	// NodeID identifies a node.
	NodeID = simnet.NodeID
	// TopicID identifies a topic.
	TopicID = idspace.ID
)

// EventID uniquely identifies a published event (the shared substrate's
// type).
type EventID = ring.EventID

// Params are what a caller sets on an RVR node. Everything else is a
// constant: treeLease here, the shared substrate's in internal/ring and
// internal/sampling.
type Params struct {
	RTSize              int // default 15
	NetworkSizeEstimate int // default 10000
}

// WithDefaults fills zero fields.
func (p Params) WithDefaults() Params {
	if p.RTSize == 0 {
		p.RTSize = 15
	}
	if p.NetworkSizeEstimate == 0 {
		p.NetworkSizeEstimate = 10000
	}
	return p
}

// treeLease is how long multicast-tree soft state survives without a
// refresh.
const treeLease = ring.LeaseBeats * ring.Period

// Hooks mirror core.Hooks for the metrics layer.
type Hooks struct {
	OnDeliver      func(node NodeID, topic TopicID, ev EventID, hops int)
	OnNotification func(node NodeID, topic TopicID, interested bool)
}

// Wire messages.
type (
	// SubscribeMsg routes toward hash(Topic), leaving tree soft state.
	SubscribeMsg struct {
		Topic TopicID
		TTL   int
	}
	// Notification carries an event; Routing is true while it is still
	// being greedily routed toward the rendezvous, false once it travels
	// the multicast tree.
	Notification struct {
		Topic   TopicID
		Event   EventID
		Hops    int
		Routing bool
	}
	// Ping and Pong implement neighbor liveness.
	Ping struct{}
	// Pong answers a Ping.
	Pong struct{}
)

// Node is one RVR participant.
type Node struct {
	id     NodeID
	net    *simnet.Network
	eng    *simnet.Engine
	params Params
	rng    *rand.Rand
	hooks  Hooks

	subs map[TopicID]bool
	// subsSorted caches the sorted subscription list between changes; the
	// heartbeat walks it every round.
	subsSorted []TopicID
	subsDirty  bool

	// Reusable hot-path scratch, mirroring internal/core: a node is
	// single-threaded and transports never deliver re-entrantly, so the
	// buffers are safely reused across events (see DESIGN.md "Performance").
	slots     ring.Slots
	spreadIDs []NodeID

	sampler *sampling.Service
	xchg    *tman.Exchanger
	// live ages neighbors by their Pongs and tombstones the evicted.
	live *ring.Liveness

	trees  ring.Trees
	seen   *ring.Seen
	pubSeq uint64

	stopped bool
}

// NewNode creates an RVR node; call Join to start it.
func NewNode(net *simnet.Network, id NodeID, params Params, hooks Hooks) *Node {
	p := params.WithDefaults()
	return &Node{
		id:     id,
		net:    net,
		eng:    net.Engine(),
		params: p,
		rng:    net.Engine().DeriveRNG(int64(id) ^ 0x5256), // distinct stream from a same-id Vitis node
		hooks:  hooks,
		subs:   make(map[TopicID]bool),
		live:   ring.NewLiveness(ring.Period),
		trees:  make(ring.Trees),
		seen:   ring.NewSeen(),
	}
}

// ID returns the node id.
func (n *Node) ID() NodeID { return n.id }

// Subscribe adds a topic; the node joins the topic's tree on following
// heartbeats.
func (n *Node) Subscribe(t TopicID) {
	if !n.subs[t] {
		n.subs[t] = true
		n.subsDirty = true
	}
}

// Unsubscribe removes a topic; tree membership decays with the lease.
func (n *Node) Unsubscribe(t TopicID) {
	if n.subs[t] {
		delete(n.subs, t)
		n.subsDirty = true
	}
}

// Subscribed reports current subscription.
func (n *Node) Subscribed(t TopicID) bool { return n.subs[t] }

// Join attaches the node and starts its protocol stacks.
func (n *Node) Join(bootstrap []NodeID) {
	n.net.Attach(n.id, simnet.HandlerFunc(n.dispatch))
	n.sampler = sampling.New(n.net, n.id,
		sampling.Config{Period: ring.Period},
		bootstrap, n.rng)
	n.xchg = tman.New(n.net, n.id, ring.Period, tman.Callbacks{
		SelfDescriptor: func() tman.Descriptor { return tman.Descriptor{ID: n.id} },
		SampleNodes: func() []tman.Descriptor {
			return ring.Descriptors(n.sampler.Sample(sampling.SampleSize))
		},
		SelectNeighbors: n.selectNeighbors,
	}, ring.Descriptors(bootstrap), n.rng)
	n.sampler.Start()
	n.xchg.Start()
	n.eng.Every(ring.Period, func() bool {
		if n.stopped {
			return false
		}
		n.heartbeat()
		return true
	})
}

// Leave detaches the node ungracefully.
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

// Alive reports liveness.
func (n *Node) Alive() bool { return !n.stopped && n.net.Alive(n.id) }

// selectNeighbors is the subscription-oblivious table: successor,
// predecessor, and RTSize−2 harmonic small-world links. The returned slice
// is owned by the node's scratch and valid until the next call; the T-Man
// exchanger copies what it keeps.
func (n *Node) selectNeighbors(buffer []tman.Descriptor) []tman.Descriptor {
	buffer = n.live.DropSuspects(buffer, n.eng.Now())
	if len(buffer) == 0 {
		return nil
	}
	sl := &n.slots
	sl.Reset()
	sl.Ring(n.id, buffer)
	for sl.Len() < n.params.RTSize {
		if !sl.SmallWorld(n.rng, n.id, n.params.NetworkSizeEstimate, buffer) {
			break
		}
	}
	return sl.Selected()
}

func (n *Node) dispatch(from NodeID, msg simnet.Message) {
	if n.stopped {
		return
	}
	n.live.Unsuspect(from) // any message proves liveness
	if n.sampler.HandleMessage(from, msg) {
		return
	}
	if n.xchg.HandleMessage(from, msg) {
		return
	}
	switch m := msg.(type) {
	case SubscribeMsg:
		n.handleSubscribe(from, m)
	case Notification:
		n.handleNotification(from, m)
	case Ping:
		n.net.Send(n.id, from, Pong{})
	case Pong:
		n.live.Heard(from)
	}
}

// heartbeat pings the routing table and prunes dead neighbors, refreshes
// tree membership for every subscription, and expires tree soft state.
func (n *Node) heartbeat() {
	now := n.eng.Now()
	n.live.Beat(n.xchg, now, nil, func(id NodeID) { n.net.Send(n.id, id, Ping{}) })
	n.seen.Tick()
	// Sorted order keeps the message sequence (and thus the run)
	// deterministic.
	for _, t := range n.sortedSubs() {
		n.joinTree(t, ring.LookupTTL)
	}
	n.trees.Expire(now)
}

func (n *Node) sortedSubs() []TopicID {
	if n.subsDirty {
		out := make([]TopicID, 0, len(n.subs))
		for t := range n.subs {
			out = append(out, t)
		}
		slices.Sort(out)
		n.subsSorted = out
		n.subsDirty = false
	}
	return n.subsSorted
}

// joinTree performs one Scribe-style join/refresh step: lease the next
// greedy hop toward hash(t) as parent and send it a SubscribeMsg with the
// given TTL, or hold the rendezvous role if no neighbor is closer.
func (n *Node) joinTree(t TopicID, ttl int) {
	next, ok := n.trees.For(t).Advance(n.id, n.xchg.RTRef(), t, n.eng.Now()+treeLease)
	if ok {
		n.net.Send(n.id, next, SubscribeMsg{Topic: t, TTL: ttl})
	}
}

// handleSubscribe grafts the sender as a child and passes the join on.
// Unlike a Vitis relay hop, a lookup whose TTL ran out still grafts its
// sender: Scribe keeps the partial branch.
func (n *Node) handleSubscribe(from NodeID, m SubscribeMsg) {
	n.trees.For(m.Topic).LeaseChild(from, n.eng.Now()+treeLease)
	if m.TTL > 0 {
		n.joinTree(m.Topic, m.TTL-1)
	}
}

// Publish creates an event and routes it toward the topic's rendezvous; the
// tree then floods it to the subscribers.
func (n *Node) Publish(t TopicID) EventID {
	ev := EventID{Publisher: n.id, Seq: n.pubSeq}
	n.pubSeq++
	n.seen.Add(ev)
	if n.subs[t] && n.hooks.OnDeliver != nil {
		n.hooks.OnDeliver(n.id, t, ev, 0)
	}
	if n.trees.Live(t, n.eng.Now()) {
		// Publisher already on the tree: disseminate directly.
		n.spread(t, ev, 0, n.id)
		return ev
	}
	next, ok := ring.NextHop(n.id, n.xchg.RTRef(), t)
	if !ok {
		// We are the rendezvous but hold no tree state: no reachable
		// subscribers yet.
		return ev
	}
	n.net.Send(n.id, next, Notification{Topic: t, Event: ev, Hops: 1, Routing: true})
	return ev
}

func (n *Node) handleNotification(from NodeID, m Notification) {
	if n.hooks.OnNotification != nil {
		n.hooks.OnNotification(n.id, m.Topic, n.subs[m.Topic])
	}
	if n.seen.Has(m.Event) {
		return
	}
	n.seen.Add(m.Event)
	if n.subs[m.Topic] && n.hooks.OnDeliver != nil {
		n.hooks.OnDeliver(n.id, m.Topic, m.Event, m.Hops)
	}

	if n.trees.Live(m.Topic, n.eng.Now()) {
		// Reached the multicast tree: flood along it (both directions;
		// the seen-set stops echoes).
		n.spread(m.Topic, m.Event, m.Hops, from)
		return
	}
	if m.Routing {
		next, ok := ring.NextHop(n.id, n.xchg.RTRef(), m.Topic)
		if !ok {
			// Rendezvous without tree state: nobody subscribed via us.
			return
		}
		n.net.Send(n.id, next, Notification{Topic: m.Topic, Event: m.Event, Hops: m.Hops + 1, Routing: true})
	}
}

// spread forwards the event along the tree links for the topic. The target
// set is built in a reusable scratch slice — sorted and deduplicated for
// deterministic send order — and the notification is boxed once for the
// whole fan-out.
func (n *Node) spread(t TopicID, ev EventID, hops int, exclude NodeID) {
	ts, ok := n.trees[t]
	if !ok {
		return
	}
	ids := ring.Fanout(ts.AppendLinks(n.spreadIDs[:0], n.eng.Now()), exclude, n.id)
	n.spreadIDs = ids
	msg := simnet.Message(Notification{Topic: t, Event: ev, Hops: hops + 1})
	for _, id := range ids {
		n.net.Send(n.id, id, msg)
	}
}

// RoutingTable exposes the current table for tests.
func (n *Node) RoutingTable() []NodeID { return ring.IDs(n.xchg.RTRef()) }

// OnTree reports whether the node holds live tree state for t.
func (n *Node) OnTree(t TopicID) bool { return n.trees.Live(t, n.eng.Now()) }

// IsRendezvous reports live rendezvous state for t.
func (n *Node) IsRendezvous(t TopicID) bool { return n.trees.Rendezvous(t, n.eng.Now()) }
