// Package vitis is the public API of the Vitis reproduction — a
// gossip-based hybrid publish/subscribe overlay enabling rendezvous routing
// on unstructured networks (Rahimian et al., IPDPS 2011).
//
// The package wraps the protocol implementation (internal/core) and the
// deterministic discrete-event simulator (internal/simnet) behind a small
// surface: build a Cluster, add Nodes, Subscribe with a handler, Publish,
// and advance virtual time with Run. Everything is single-threaded and
// reproducible under a seed.
//
//	c := vitis.NewCluster(vitis.Options{Seed: 42})
//	a := c.AddNode("alice")
//	b := c.AddNode("bob")
//	b.Subscribe("news", func(ev vitis.Event) { fmt.Println("bob got", ev.Topic) })
//	c.Run(30 * time.Second) // let the overlay converge
//	a.Publish("news")
//	c.Run(5 * time.Second)
package vitis

import (
	"fmt"
	"sort"
	"time"

	"vitis/internal/core"
	"vitis/internal/deploy"
	"vitis/internal/idspace"
	"vitis/internal/overlay"
	"vitis/internal/simnet"
)

// Options configure a Cluster. The zero value is usable.
type Options struct {
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// RTSize bounds every node's routing table (default 15).
	RTSize int
	// SWLinks is the number of small-world links k (default 1).
	SWLinks int
	// GatewayHops is the gateway election threshold d (default 5).
	GatewayHops int
	// MinLatency and MaxLatency bound the simulated one-way message
	// delay (defaults 10ms and 80ms).
	MinLatency, MaxLatency time.Duration
	// ExpectedNodes tunes the small-world link length distribution; set
	// it to the approximate cluster size (default 10000).
	ExpectedNodes int
	// UseBootstrapService runs a dedicated bootstrap node (Algorithm 1's
	// "contacts a bootstrap node") and a deployed node's membership: a node
	// enters the overlay once the bootstrap response arrives (advance the
	// clock with Run), retrying with backoff, then announces itself and
	// rejoins when isolated. Without it, joins are instantaneous.
	UseBootstrapService bool
}

// Event is a delivered publication.
type Event struct {
	// Topic is the topic name the event was published on.
	Topic string
	// Publisher is the name of the publishing node.
	Publisher string
	// Seq distinguishes events from the same publisher.
	Seq uint64
	// Hops is the number of overlay hops the event travelled.
	Hops int
	// Data is the pulled payload for events published with PublishData;
	// nil for metadata-only events. It arrives in a separate DataHandler
	// callback because the pull completes after the notification.
	Data []byte
}

// DataHandler consumes pulled payloads of PublishData events.
type DataHandler func(Event)

// Handler consumes delivered events.
type Handler func(Event)

// Cluster is a simulated swarm of Vitis nodes sharing one virtual network
// and clock. Not safe for concurrent use: like the protocol itself, the
// cluster is driven from a single goroutine.
type Cluster struct {
	opts  Options
	eng   *simnet.Engine
	net   *simnet.Network
	nodes map[string]*Node
	byID  map[simnet.NodeID]*Node

	topicNames  map[core.TopicID]string
	bootstrapID simnet.NodeID

	// traffic accounting for Stats.
	received     int
	uninterested int
}

// NewCluster creates an empty cluster.
func NewCluster(opts Options) *Cluster {
	if opts.RTSize == 0 {
		opts.RTSize = 15
	}
	if opts.SWLinks == 0 {
		opts.SWLinks = 1
	}
	if opts.GatewayHops == 0 {
		opts.GatewayHops = 5
	}
	if opts.MinLatency == 0 {
		opts.MinLatency = 10 * time.Millisecond
	}
	if opts.MaxLatency == 0 {
		opts.MaxLatency = 80 * time.Millisecond
	}
	if opts.ExpectedNodes == 0 {
		opts.ExpectedNodes = 10000
	}
	eng := simnet.NewEngine(opts.Seed)
	net := simnet.NewNetwork(eng, simnet.UniformLatency{
		Min: simnet.Time(opts.MinLatency / time.Millisecond),
		Max: simnet.Time(opts.MaxLatency / time.Millisecond),
	})
	c := &Cluster{
		opts:       opts,
		eng:        eng,
		net:        net,
		nodes:      make(map[string]*Node),
		byID:       make(map[simnet.NodeID]*Node),
		topicNames: make(map[core.TopicID]string),
	}
	if opts.UseBootstrapService {
		c.bootstrapID = idspace.HashString("vitis:bootstrap-service")
		deploy.Bootstrap(net, c.bootstrapID, simnet.Second) // core's default gossip period
	}
	return c
}

// Node is one cluster member.
type Node struct {
	name    string
	cluster *Cluster
	impl    *core.Node

	handlers     map[string][]Handler
	dataHandlers []DataHandler
}

// AddNode creates a node named name, joins it to the overlay (bootstrapped
// from up to three existing members), and returns it. Adding a name twice
// panics: node identities must be unique.
func (c *Cluster) AddNode(name string) *Node {
	if _, dup := c.nodes[name]; dup {
		panic(fmt.Sprintf("vitis: duplicate node name %q", name))
	}
	id := idspace.HashString("node:" + name)
	n := &Node{
		name:     name,
		cluster:  c,
		handlers: make(map[string][]Handler),
	}
	n.impl = core.NewNode(c.net, id, core.Params{
		RTSize:              c.opts.RTSize,
		SWLinks:             c.opts.SWLinks,
		GatewayHops:         c.opts.GatewayHops,
		NetworkSizeEstimate: c.opts.ExpectedNodes,
	}, core.Hooks{
		OnDeliver:      c.onDeliver,
		OnNotification: c.onNotification,
		OnPayload:      c.onPayload,
	})
	c.nodes[name] = n
	c.byID[id] = n
	if c.opts.UseBootstrapService {
		deploy.Join(c.net, n.impl, c.bootstrapID, simnet.Second, nil)
	} else {
		n.impl.Join(c.bootstrapPeers(3))
	}
	return n
}

// bootstrapPeers returns up to k ids of existing live nodes,
// deterministically (out-of-band bootstrap for clusters without the
// bootstrap service).
func (c *Cluster) bootstrapPeers(k int) []simnet.NodeID {
	var ids []simnet.NodeID
	for id, n := range c.byID {
		if n.impl.Alive() {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) > k {
		// Deterministic spread: take evenly spaced entries.
		step := len(ids) / k
		picked := make([]simnet.NodeID, 0, k)
		for i := 0; i < k; i++ {
			picked = append(picked, ids[i*step])
		}
		ids = picked
	}
	return ids
}

func (c *Cluster) onDeliver(node core.NodeID, topic core.TopicID, ev core.EventID, hops int) {
	n, ok := c.byID[node]
	if !ok {
		return
	}
	name := c.topicNames[topic]
	var publisher string
	if p, ok := c.byID[ev.Publisher]; ok {
		publisher = p.name
	}
	e := Event{Topic: name, Publisher: publisher, Seq: ev.Seq, Hops: hops}
	for _, h := range n.handlers[name] {
		h(e)
	}
}

func (c *Cluster) onNotification(_ core.NodeID, _ core.TopicID, interested bool) {
	c.received++
	if !interested {
		c.uninterested++
	}
}

func (c *Cluster) onPayload(node core.NodeID, ev core.EventID, payload []byte) {
	n, ok := c.byID[node]
	if !ok {
		return
	}
	var publisher string
	if p, ok := c.byID[ev.Publisher]; ok {
		publisher = p.name
	}
	e := Event{Publisher: publisher, Seq: ev.Seq, Data: payload}
	for _, h := range n.dataHandlers {
		h(e)
	}
}

// Node returns the named node, or nil if absent.
func (c *Cluster) Node(name string) *Node { return c.nodes[name] }

// Size returns the number of live nodes.
func (c *Cluster) Size() int { return c.net.NumAlive() }

// Run advances the virtual clock by d, delivering all due messages and
// gossip rounds. Virtual time is unrelated to wall time: a 30-second warmup
// typically simulates in well under a second for small clusters.
func (c *Cluster) Run(d time.Duration) {
	c.eng.RunUntil(c.eng.Now() + simnet.Time(d/time.Millisecond))
}

// Now returns the current virtual time since the cluster started.
func (c *Cluster) Now() time.Duration {
	return time.Duration(c.eng.Now()) * time.Millisecond
}

// Stats summarises the cluster's data-plane traffic so far.
type Stats struct {
	// Received is the total number of event notifications received by
	// all nodes.
	Received int
	// Uninterested is how many of those hit nodes that do not subscribe
	// to the topic (relay traffic, the overhead the paper minimises).
	Uninterested int
}

// OverheadRatio returns Uninterested/Received, or 0 when idle.
func (s Stats) OverheadRatio() float64 {
	if s.Received == 0 {
		return 0
	}
	return float64(s.Uninterested) / float64(s.Received)
}

// Stats returns a snapshot of the traffic counters.
func (c *Cluster) Stats() Stats {
	return Stats{Received: c.received, Uninterested: c.uninterested}
}

// TopicClusters returns the current clusters of a topic: each inner slice
// lists the names of one maximal connected group of subscribers over the
// (symmetrized) routing-table graph — the structures of the paper's Fig. 1.
// A converged overlay with enough friend links should show few clusters per
// topic.
func (c *Cluster) TopicClusters(topic string) [][]string {
	impls := make([]*core.Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		impls = append(impls, n.impl)
	}
	snap := overlay.Capture(impls)
	var out [][]string
	for _, cluster := range snap.TopicClusters(core.Topic(topic)) {
		names := make([]string, 0, len(cluster))
		for _, id := range cluster {
			if n, ok := c.byID[id]; ok {
				names = append(names, n.name)
			}
		}
		sort.Strings(names)
		out = append(out, names)
	}
	return out
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Subscribe registers interest in topic and attaches handler (which may be
// nil) for delivered events. The overlay absorbs the subscription over the
// next gossip rounds.
func (n *Node) Subscribe(topic string, handler Handler) {
	tid := core.Topic(topic)
	n.cluster.topicNames[tid] = topic
	n.impl.Subscribe(tid)
	if handler != nil {
		n.handlers[topic] = append(n.handlers[topic], handler)
	}
}

// Unsubscribe removes interest in topic and drops its handlers.
func (n *Node) Unsubscribe(topic string) {
	n.impl.Unsubscribe(core.Topic(topic))
	delete(n.handlers, topic)
}

// Subscribed reports whether the node currently subscribes to topic.
func (n *Node) Subscribed(topic string) bool {
	return n.impl.Subscribed(core.Topic(topic))
}

// Publish emits a new event on topic and returns it. The publisher need not
// subscribe to the topic. Delivery to subscribers happens as the cluster
// runs.
func (n *Node) Publish(topic string) Event {
	tid := core.Topic(topic)
	n.cluster.topicNames[tid] = topic
	ev := n.impl.Publish(tid)
	return Event{Topic: topic, Publisher: n.name, Seq: ev.Seq}
}

// PublishData emits an event carrying a payload. Subscribers receive the
// notification through their Subscribe handlers and the payload — pulled
// hop-by-hop along the notification path, per §III-C — through any
// OnData handlers.
func (n *Node) PublishData(topic string, data []byte) Event {
	tid := core.Topic(topic)
	n.cluster.topicNames[tid] = topic
	ev := n.impl.PublishData(tid, data)
	return Event{Topic: topic, Publisher: n.name, Seq: ev.Seq, Data: data}
}

// OnData registers a handler for pulled payloads of PublishData events on
// any topic this node subscribes to.
func (n *Node) OnData(handler DataHandler) {
	n.dataHandlers = append(n.dataHandlers, handler)
}

// Leave removes the node from the overlay ungracefully; neighbors notice
// through missed heartbeats, as under churn.
func (n *Node) Leave() { n.impl.Leave() }

// Alive reports whether the node is still part of the overlay.
func (n *Node) Alive() bool { return n.impl.Alive() }

// Neighbors returns the names of the node's current routing-table entries
// (unnamed ids are skipped).
func (n *Node) Neighbors() []string {
	var out []string
	for _, id := range n.impl.RoutingTable() {
		if p, ok := n.cluster.byID[id]; ok {
			out = append(out, p.name)
		}
	}
	return out
}

// IsGateway reports whether the node currently acts as a gateway for topic
// (§III-B).
func (n *Node) IsGateway(topic string) bool {
	return n.impl.IsGateway(core.Topic(topic))
}

// IsRendezvous reports whether the node currently holds rendezvous state
// for topic.
func (n *Node) IsRendezvous(topic string) bool {
	return n.impl.IsRendezvous(core.Topic(topic))
}

// SetRateEstimate installs a publication-rate estimate used by the Eq. 1
// utility function when ranking friends; rates need not be normalised. A nil
// map restores uniform rates.
func (n *Node) SetRateEstimate(rates map[string]float64) {
	if rates == nil {
		n.impl.SetRate(nil)
		return
	}
	byID := make(map[core.TopicID]float64, len(rates))
	for topic, r := range rates {
		byID[core.Topic(topic)] = r
	}
	n.impl.SetRate(func(t core.TopicID) float64 { return byID[t] })
}
