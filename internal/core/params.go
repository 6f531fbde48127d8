// Package core implements the Vitis protocol — the paper's primary
// contribution (§III).
//
// Every node keeps a bounded routing table holding three kinds of links:
// ring links (one predecessor and one successor, giving lookup consistency),
// k small-world links chosen Symphony-style with harmonically distributed
// distances (giving O(1/k · log²N) greedy routing), and similarity links
// ("friends") ranked by the Eq. 1 utility function over subscription overlap
// weighted by publication rates. The table is built and maintained by
// gossip: a Newscast-style peer sampling service feeds a T-Man exchanger
// whose selection function is Algorithm 4.
//
// Because the table is bounded, a topic's subscribers split into disjoint
// clusters. Nodes elect per-cluster gateways with the eventually consistent
// proposal protocol of Algorithm 5 (piggybacked on the periodic profile
// heartbeats of Algorithms 6–7); each gateway greedily looks up hash(topic),
// turning the lookup path into a soft-state relay path that meets the paths
// of the topic's other clusters at the rendezvous node. Published events
// flood inside clusters and cross between them over the relay paths.
package core

import (
	"vitis/internal/idspace"
	"vitis/internal/simnet"
	"vitis/internal/store"
	"vitis/internal/telemetry"
)

// NodeID and TopicID live in the same identifier space (§III: "Node ids and
// topic ids share the same identifier space").
type (
	// NodeID identifies a node.
	NodeID = simnet.NodeID
	// TopicID identifies a topic; it is the hash of the topic name.
	TopicID = idspace.ID
)

// Topic hashes a topic name into the identifier space.
func Topic(name string) TopicID { return idspace.HashString(name) }

// Params are the protocol values a caller may set. Zero values take the
// paper's defaults (§IV-A): routing table of 15, k = 1 small-world link (plus
// predecessor and successor), gateway hop threshold d = 5, one-second gossip
// rounds. The values the paper fixes are constants next to the code that
// uses them: ring.StaleAge, ring.LookupTTL, ring.LeaseBeats,
// sampling.ViewSize and sampling.SampleSize, and the pull retry in pull.go.
type Params struct {
	// RTSize bounds the routing table (paper default 15).
	RTSize int
	// SWLinks is k, the number of small-world links beyond the two ring
	// links. Fig. 4 sweeps the friend/sw split; after it the paper fixes
	// one predecessor, one successor and one sw-neighbor.
	SWLinks int
	// GatewayHops is d, the maximum distance in hops from any cluster
	// member to its gateway (paper default 5).
	GatewayHops int
	// GossipPeriod is δt for the T-Man routing-table exchange.
	GossipPeriod simnet.Time
	// HeartbeatPeriod is δt for the profile exchange (Algorithm 6), which
	// also drives gateway election and relay refresh. Relay leases, the
	// reverse-neighbor lease and the pull retry are multiples of it.
	HeartbeatPeriod simnet.Time
	// Recovery enables the extensions a real deployment runs beyond the
	// paper's protocol. Failure recovery beyond the baseline self-healing
	// (§III-D): immediate relay-path repair when a relay parent is
	// evicted, replay of recently seen events to peers returning from
	// suspicion or isolation, and Rejoin support. Quiet heartbeats
	// (handleProfile): reactive replies only to peers outside the routing
	// table, and a digest beacon instead of an unchanged profile. Off by
	// default so simulated experiment tables stay byte-identical to the
	// plain protocol; real deployments (internal/deploy) switch it on.
	Recovery bool
	// ReplayDepth bounds how many recent events per subscribed topic are
	// retained for replay to recovering peers (default 128; only used with
	// Recovery).
	ReplayDepth int
	// CatchUpPageBytes caps one store catch-up response page (see
	// catchup.go): a node backfilling an offline subscriber sends at most
	// this many event bytes per topic per heartbeat, so history transfers
	// cannot starve live traffic. Default 16 KiB; responses are always
	// additionally clamped to fit one wire frame.
	CatchUpPageBytes int
	// AntiEntropyRounds is how many heartbeat rounds pass between
	// anti-entropy sweeps, where one rotating neighbor is asked to replay
	// its recent events (default 20; only used with Recovery). Sweeps mop
	// up notifications that plain loss erased from every forwarding path.
	AntiEntropyRounds int
	// NetworkSizeEstimate is N in the Symphony harmonic distance draw.
	NetworkSizeEstimate int
}

// WithDefaults returns p with zero fields replaced by the paper defaults.
func (p Params) WithDefaults() Params {
	if p.RTSize == 0 {
		p.RTSize = 15
	}
	if p.SWLinks == 0 {
		p.SWLinks = 1
	}
	if p.GatewayHops == 0 {
		p.GatewayHops = 5
	}
	if p.GossipPeriod == 0 {
		p.GossipPeriod = simnet.Second
	}
	if p.HeartbeatPeriod == 0 {
		p.HeartbeatPeriod = simnet.Second
	}
	if p.ReplayDepth == 0 {
		p.ReplayDepth = 128
	}
	if p.CatchUpPageBytes == 0 {
		p.CatchUpPageBytes = 16 << 10
	}
	if p.AntiEntropyRounds == 0 {
		p.AntiEntropyRounds = 20
	}
	if p.NetworkSizeEstimate == 0 {
		p.NetworkSizeEstimate = 10000
	}
	return p
}

// Friends returns how many routing-table slots remain for similarity links
// after the ring and small-world links are placed.
func (p Params) Friends() int {
	f := p.RTSize - 2 - p.SWLinks
	if f < 0 {
		return 0
	}
	return f
}

// Hooks are optional observation points used by the metrics layer; nil
// functions are skipped. They fire on the node that experiences the event.
type Hooks struct {
	// OnDeliver fires when a subscribed node first receives an event.
	OnDeliver func(node NodeID, topic TopicID, ev EventID, hops int)
	// OnNotification fires for every data-plane notification received;
	// interested reports whether the node subscribes to the topic (the
	// paper's traffic-overhead metric counts the uninterested ones).
	OnNotification func(node NodeID, topic TopicID, interested bool)
	// OnPayload fires on a subscribed node when the pulled payload of a
	// PublishData event arrives (§III-C's pull phase).
	OnPayload func(node NodeID, ev EventID, payload []byte)
	// Metrics is the node's telemetry bundle. Nil means disabled: the node
	// substitutes an all-nil bundle whose observations are one-branch
	// no-ops, so simulations pay nothing for the instrumentation.
	Metrics *telemetry.NodeMetrics
	// Tracer records hop-level span events (publishes, receipts, relay
	// lookup hops, pulls) as JSONL. Nil disables tracing entirely.
	Tracer *telemetry.Tracer
	// Now supplies the millisecond clock stamped into published events
	// (Notification.PubTime) and used to measure publish-to-deliver
	// latency. Nil falls back to the engine clock — globally consistent
	// within one simulation; deployed nodes (internal/deploy) pass wall time
	// so latency is meaningful across machines. Skewed clocks can only make
	// individual measurements read as zero, never negative.
	Now func() int64
	// Store persists events this node publishes, delivers, or relays, and
	// serves peers' catch-up requests from them (see catchup.go). Nil
	// disables the store entirely at the cost of one branch per event —
	// simulations stay byte-identical with it off.
	Store store.EventStore
}
