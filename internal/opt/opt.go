// Package opt implements the paper's second baseline: an unstructured
// Overlay-Per-Topic system in the style of SpiderCast (§IV: "OPT: an
// unstructured subscription aware solution that constructs an overlay per
// topic, while minimizing node degrees by exploiting the subscription
// correlations").
//
// Nodes pick neighbors purely by subscription similarity with a
// coverage-greedy heuristic: candidates are ranked by how many
// insufficiently covered topics they would cover, then by Eq. 1-style
// utility. With a bounded degree, per-topic sub-overlays can stay
// disconnected and the hit ratio drops (Fig. 10a); with unbounded degree the
// node degree distribution explodes (Fig. 11). Events flood only among
// subscribers, so OPT has zero relay traffic (Fig. 10b) but no delay bound
// (Fig. 10c).
package opt

import (
	"math/rand"
	"sort"

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

// Params are what a caller sets on an OPT node. Everything else is a
// constant: coverageTarget here, the shared substrate's in internal/ring
// and internal/sampling.
type Params struct {
	// MaxDegree bounds the routing table; 0 means unbounded (the Fig. 11
	// configuration).
	MaxDegree int
}

// Bounded reports whether the degree is capped.
func (p Params) Bounded() bool { return p.MaxDegree > 0 }

// coverageTarget is K, the number of neighbors a node tries to have per
// subscribed topic (SpiderCast's K-coverage).
const coverageTarget = 2

// Hooks mirror the other systems' metric hooks. OnNotification's interested
// flag is always true in OPT (only subscribers receive events); it is kept
// for interface symmetry with the harness.
type Hooks struct {
	OnDeliver      func(node NodeID, topic TopicID, ev EventID, hops int)
	OnNotification func(node NodeID, topic TopicID, interested bool)
}

// Wire messages.
type (
	// ProfileMsg is the heartbeat carrying the subscription list.
	ProfileMsg struct {
		Subs  []TopicID // sorted
		Reply bool
	}
	// Notification carries an event through the topic's sub-overlay.
	Notification struct {
		Topic TopicID
		Event EventID
		Hops  int
	}
)

// subsSummary is the T-Man payload type.
type subsSummary []TopicID

// Node is one OPT participant.
type Node struct {
	id     NodeID
	net    *simnet.Network
	eng    *simnet.Engine
	params Params
	rng    *rand.Rand
	hooks  Hooks

	subs map[TopicID]bool

	sampler *sampling.Service
	xchg    *tman.Exchanger
	live    *ring.Liveness // neighbor ages and tombstones for detected-dead nodes

	profiles  map[NodeID][]TopicID   // neighbor -> sorted subs
	reverse   map[NodeID]simnet.Time // reverse-neighbor expiry
	knownSubs map[NodeID][]TopicID   // gossip-learned subs of non-neighbors

	seen   *ring.Seen
	pubSeq uint64

	stopped bool
}

// NewNode creates an OPT node; call Join to start it.
func NewNode(net *simnet.Network, id NodeID, params Params, hooks Hooks) *Node {
	return &Node{
		id:        id,
		net:       net,
		eng:       net.Engine(),
		params:    params,
		rng:       net.Engine().DeriveRNG(int64(id) ^ 0x4f50), // distinct stream per system
		hooks:     hooks,
		subs:      make(map[TopicID]bool),
		live:      ring.NewLiveness(ring.Period),
		profiles:  make(map[NodeID][]TopicID),
		reverse:   make(map[NodeID]simnet.Time),
		knownSubs: make(map[NodeID][]TopicID),
		seen:      ring.NewSeen(),
	}
}

// ID returns the node id.
func (n *Node) ID() NodeID { return n.id }

// Subscribe adds a topic.
func (n *Node) Subscribe(t TopicID) { n.subs[t] = true }

// Unsubscribe removes a topic.
func (n *Node) Unsubscribe(t TopicID) { delete(n.subs, t) }

// Subscribed reports current subscription.
func (n *Node) Subscribed(t TopicID) bool { return n.subs[t] }

// Join attaches the node and starts gossip.
func (n *Node) Join(bootstrap []NodeID) {
	n.net.Attach(n.id, simnet.HandlerFunc(n.dispatch))
	n.sampler = sampling.New(n.net, n.id,
		sampling.Config{Period: ring.Period},
		bootstrap, n.rng)
	n.xchg = tman.New(n.net, n.id, ring.Period, tman.Callbacks{
		SelfDescriptor: func() tman.Descriptor {
			return tman.Descriptor{ID: n.id, Payload: subsSummary(n.sortedSubs())}
		},
		SampleNodes: func() []tman.Descriptor {
			return ring.Descriptors(n.sampler.Sample(sampling.SampleSize))
		},
		SelectNeighbors: n.selectNeighbors,
		// SpiderCast assumes broad membership knowledge (≥5% of the
		// network, per the paper's critique); gossiping with sampled
		// peers keeps subscription knowledge flowing between otherwise
		// closed interest cliques.
		SamplePeerProb: 0.3,
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

// Leave detaches ungracefully.
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

// selectNeighbors is the coverage-greedy SpiderCast-style selection: repeat
// picking the candidate that covers the most under-covered topics (ties by
// overlap size, then id) until the degree bound, the coverage target, or the
// candidate pool is exhausted. Unbounded nodes stop adding only when every
// subscribed topic is K-covered (or no candidate helps), which is exactly
// what blows up their degree on skewed subscription patterns.
func (n *Node) selectNeighbors(buffer []tman.Descriptor) []tman.Descriptor {
	if len(buffer) == 0 {
		return nil
	}
	type cand struct {
		d    tman.Descriptor
		subs []TopicID
	}
	now := n.eng.Now()
	cands := make([]cand, 0, len(buffer))
	for _, d := range buffer {
		if n.live.Suspected(d.ID, now) {
			continue
		}
		if s, ok := d.Payload.(subsSummary); ok {
			n.knownSubs[d.ID] = s
		}
		cands = append(cands, cand{d: d, subs: n.subsOf(d)})
	}
	// Index candidates per subscribed topic, shuffled: SpiderCast's
	// connectivity argument needs each topic's K links drawn *randomly*
	// among its subscribers. A deterministic max-coverage greedy would
	// make correlated groups (e.g. all {bucketA,bucketB} nodes) close
	// into cliques and fragment the per-topic overlays.
	byTopic := make(map[TopicID][]int, len(n.subs))
	for i, c := range cands {
		for _, t := range c.subs {
			if n.subs[t] {
				byTopic[t] = append(byTopic[t], i)
			}
		}
	}
	myTopics := n.sortedSubs()
	n.rng.Shuffle(len(myTopics), func(i, j int) { myTopics[i], myTopics[j] = myTopics[j], myTopics[i] })

	coverage := make(map[TopicID]int, len(n.subs))
	var selected []tman.Descriptor
	taken := make(map[NodeID]bool)
	full := func() bool { return n.params.Bounded() && len(selected) >= n.params.MaxDegree }
	take := func(c cand) {
		taken[c.d.ID] = true
		selected = append(selected, c.d)
		for _, t := range c.subs {
			if n.subs[t] {
				coverage[t]++
			}
		}
	}
	for _, t := range myTopics {
		pool := byTopic[t]
		n.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		for _, i := range pool {
			if coverage[t] >= coverageTarget || full() {
				break
			}
			if !taken[cands[i].d.ID] {
				take(cands[i])
			}
		}
		if full() {
			break
		}
	}
	// Connectivity floor: SpiderCast keeps a few random links besides the
	// interest-driven ones so nodes whose interests are not yet matched do
	// not fall out of the overlay. Without them a node with no known
	// overlapping candidate would end up with an empty table and stop
	// gossiping entirely.
	const connectivityLinks = 2
	for _, d := range buffer {
		if len(selected) >= connectivityLinks || (n.params.Bounded() && len(selected) >= n.params.MaxDegree) {
			break
		}
		if !taken[d.ID] {
			taken[d.ID] = true
			selected = append(selected, d)
		}
	}
	return selected
}

func (n *Node) subsOf(d tman.Descriptor) []TopicID {
	if s, ok := d.Payload.(subsSummary); ok {
		return s
	}
	if s, ok := n.profiles[d.ID]; ok {
		return s
	}
	return n.knownSubs[d.ID]
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
	case ProfileMsg:
		n.handleProfile(from, m)
	case Notification:
		n.handleNotification(from, m)
	}
}

func (n *Node) heartbeat() {
	now := n.eng.Now()
	subs := n.sortedSubs()
	n.live.Beat(n.xchg, now, func(id NodeID) { delete(n.profiles, id) }, func(id NodeID) {
		n.net.Send(n.id, id, ProfileMsg{Subs: subs})
	})
	n.seen.Tick()
	for id, exp := range n.reverse {
		if exp <= now {
			delete(n.reverse, id)
			if !n.xchg.Contains(id) {
				delete(n.profiles, id)
			}
		}
	}
}

func (n *Node) handleProfile(from NodeID, m ProfileMsg) {
	n.profiles[from] = m.Subs
	n.reverse[from] = n.eng.Now() + ring.StaleAge*ring.Period
	if n.xchg.Contains(from) {
		n.live.Heard(from)
		n.xchg.UpdatePayload(from, subsSummary(m.Subs))
	}
	if !m.Reply {
		n.net.Send(n.id, from, ProfileMsg{Subs: n.sortedSubs(), Reply: true})
	}
}

// Publish creates an event and floods it through the topic's sub-overlay.
func (n *Node) Publish(t TopicID) EventID {
	ev := EventID{Publisher: n.id, Seq: n.pubSeq}
	n.pubSeq++
	n.seen.Add(ev)
	if n.subs[t] && n.hooks.OnDeliver != nil {
		n.hooks.OnDeliver(n.id, t, ev, 0)
	}
	n.forward(t, ev, 0, n.id)
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
	if n.subs[m.Topic] {
		n.forward(m.Topic, m.Event, m.Hops, from)
	}
}

// forward floods the event to every known interested neighbor (table plus
// fresh reverse neighbors). Only subscribers forward, so no relay traffic
// arises.
func (n *Node) forward(t TopicID, ev EventID, hops int, exclude NodeID) {
	now := n.eng.Now()
	var ids []NodeID
	for _, d := range n.xchg.RT() {
		if n.interested(d.ID, t) {
			ids = append(ids, d.ID)
		}
	}
	for id, exp := range n.reverse {
		if exp > now && n.interested(id, t) {
			ids = append(ids, id)
		}
	}
	for _, id := range ring.Fanout(ids, exclude, n.id) {
		n.net.Send(n.id, id, Notification{Topic: t, Event: ev, Hops: hops + 1})
	}
}

// interested reports whether id's known subscriptions — its profile, else
// its routing-table descriptor's payload — include t.
func (n *Node) interested(id NodeID, t TopicID) bool {
	subs, ok := n.profiles[id]
	if !ok {
		subs, ok = n.payloadOf(id)
	}
	return ok && containsTopic(subs, t)
}

func (n *Node) payloadOf(id NodeID) ([]TopicID, bool) {
	for _, d := range n.xchg.RT() {
		if d.ID == id {
			if s, ok := d.Payload.(subsSummary); ok {
				return s, true
			}
			return nil, false
		}
	}
	return nil, false
}

func containsTopic(sorted []TopicID, t TopicID) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= t })
	return i < len(sorted) && sorted[i] == t
}

func (n *Node) sortedSubs() []TopicID {
	out := make([]TopicID, 0, len(n.subs))
	for t := range n.subs {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Degree returns the current out-degree (routing-table size) — the quantity
// plotted in Fig. 11 for the unbounded configuration.
func (n *Node) Degree() int { return len(n.xchg.RT()) }

// RoutingTable exposes the table for tests.
func (n *Node) RoutingTable() []NodeID { return ring.IDs(n.xchg.RTRef()) }
