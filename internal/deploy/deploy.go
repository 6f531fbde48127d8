// Package deploy assembles the node a real deployment runs: a core.Node
// with Recovery on and wall-clock timestamps, joined through a bootstrap
// node (Algorithm 1) with jittered exponential backoff, kept registered by
// periodic Announces, and put back into the overlay through the bootstrap
// node when it finds itself isolated (§III-D).
//
// The caller builds the transport.Host — UDP for cmd/vitis-node, a chaos
// wrapped Loopback endpoint for the chaos tests, the simulator for this
// package's tests — and runs its engine; New only schedules work on it.
package deploy

import (
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"time"

	"vitis/internal/bootstrap"
	"vitis/internal/core"
	"vitis/internal/simnet"
	"vitis/internal/store"
	"vitis/internal/telemetry"
	"vitis/internal/transport"
)

// want is how many peers a JoinReq asks of the bootstrap node.
const want = 8

// Config wires one deployed node.
type Config struct {
	// Self is the node's overlay id.
	Self core.NodeID
	// Bootstrap is the id of the bootstrap node the node joins through.
	Bootstrap simnet.NodeID
	// Period is the gossip and heartbeat period. The join backoff starts
	// at one period, the isolation monitor runs every two and the
	// announces every ten.
	Period simnet.Time
	// Subscribe lists the topics subscribed before the join.
	Subscribe []core.TopicID
	// Registry receives the node metrics and vitis_node_joined.
	Registry *telemetry.Registry
	// Tracer, Store and OnDeliver are handed to core.Hooks.
	Tracer    *telemetry.Tracer
	Store     store.EventStore
	OnDeliver func(node core.NodeID, topic core.TopicID, ev core.EventID, hops int)
	// Log receives one line per join, isolation and rejoin.
	Log io.Writer
}

// Node is a deployed node: the protocol stack plus its join state. Apart
// from Joined, every method must run on the host's engine goroutine.
type Node struct {
	*core.Node
	host    *transport.Host
	cfg     Config
	metrics *telemetry.NodeMetrics
	rng     *rand.Rand
	backoff transport.Backoff

	joined    atomic.Bool // read off the engine goroutine by /healthz
	joinedAt  simnet.Time
	rejoining bool
}

// New builds the node on host and schedules its join through
// cfg.Bootstrap, the isolation monitor and the announces on host's engine.
func New(host *transport.Host, cfg Config) *Node {
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	n := &Node{
		host:    host,
		cfg:     cfg,
		metrics: telemetry.NewNodeMetrics(cfg.Registry),
		rng:     host.Engine().DeriveRNG(int64(cfg.Self) ^ 0x6a6e),
		backoff: transport.Backoff{
			Base:   time.Duration(cfg.Period) * time.Millisecond,
			Max:    30 * time.Second,
			Jitter: 0.5,
		},
	}
	n.Node = core.NewNode(host, cfg.Self, core.Params{
		GossipPeriod:    cfg.Period,
		HeartbeatPeriod: cfg.Period,
		Recovery:        true,
	}, core.Hooks{
		OnDeliver: cfg.OnDeliver,
		Metrics:   n.metrics,
		Tracer:    cfg.Tracer,
		Store:     cfg.Store,
		// Wall-clock stamps make delivery latency measurable across
		// processes; the engine clock is per process.
		Now: func() int64 { return time.Now().UnixMilli() },
	})
	for _, tp := range cfg.Subscribe {
		n.Subscribe(tp)
	}
	cfg.Registry.GaugeFunc("vitis_node_joined", "1 once the node has joined the overlay.",
		func() float64 {
			if n.Joined() {
				return 1
			}
			return 0
		})

	eng := host.Engine()
	host.Attach(cfg.Self, simnet.HandlerFunc(n.deliver))
	eng.Schedule(0, func() { n.askBootstrap(0, func() bool { return !n.Joined() }) })
	eng.Every(2*cfg.Period, n.monitor)
	eng.Schedule(10*cfg.Period, n.announce)
	return n
}

// Bootstrap attaches the bootstrap node of Algorithm 1 to host under self.
// A registration lives 30 periods, three announce intervals, so slow test
// clusters and long-lived deployments both age peers out sensibly.
func Bootstrap(host *transport.Host, self simnet.NodeID, period simnet.Time) *bootstrap.Service {
	bs := bootstrap.New(host, self, bootstrap.Config{Lease: 30 * period})
	host.Attach(self, simnet.HandlerFunc(bs.Deliver))
	return bs
}

// Joined reports whether the first JoinResp has arrived. Safe from any
// goroutine.
func (n *Node) Joined() bool { return n.joined.Load() }

// JoinedAt is the engine time of the join; zero before it.
func (n *Node) JoinedAt() simnet.Time { return n.joinedAt }

// Metrics is the node's telemetry bundle.
func (n *Node) Metrics() *telemetry.NodeMetrics { return n.metrics }

// deliver fronts the protocol stack: JoinResps drive the join and the
// rejoin, everything else reaches the node once it has joined.
func (n *Node) deliver(from simnet.NodeID, msg simnet.Message) {
	resp, ok := msg.(bootstrap.JoinResp)
	switch {
	case !ok:
		if n.Joined() {
			n.Node.Deliver(from, msg)
		}
	case !n.Joined():
		n.joined.Store(true)
		n.joinedAt = n.host.Engine().Now()
		n.Join(resp.Peers)
		// Walk the subscribed topics' history on neighbour stores: a node
		// that was offline (or is brand new) backfills what it missed.
		n.StartCatchUp()
		// Join attached the bare node; put this handler back in front.
		n.host.Attach(n.cfg.Self, simnet.HandlerFunc(n.deliver))
		fmt.Fprintf(n.cfg.Log, "joined with %d peers\n", len(resp.Peers))
	case n.rejoining:
		n.rejoining = false
		n.Rejoin(resp.Peers)
		// Replay (inside Rejoin) closes short gaps from the ring buffers;
		// the store walk backfills anything older.
		n.StartCatchUp()
		fmt.Fprintf(n.cfg.Log, "rejoined with %d peers\n", len(resp.Peers))
	}
}

// askBootstrap sends a JoinReq and retries it with jittered exponential
// backoff, so rebooting fleets do not hammer the bootstrap node in
// lockstep, for as long as pending holds.
func (n *Node) askBootstrap(attempt int, pending func() bool) {
	if !pending() {
		return
	}
	n.host.Send(n.cfg.Self, n.cfg.Bootstrap, bootstrap.JoinReq{Want: want})
	d := simnet.Time(n.backoff.Delay(attempt, n.rng) / time.Millisecond)
	n.host.Engine().Schedule(max(d, 1), func() { n.askBootstrap(attempt+1, pending) })
}

// monitor catches a joined node that lost every neighbour: a long
// partition makes both sides evict each other and nobody dials back on its
// own, so the node asks the bootstrap node for fresh peers.
func (n *Node) monitor() bool {
	if !n.Alive() {
		return false
	}
	if n.Joined() && !n.rejoining && n.Isolated() {
		n.rejoining = true
		fmt.Fprintf(n.cfg.Log, "isolated; rejoining via bootstrap %016x\n", uint64(n.cfg.Bootstrap))
		n.askBootstrap(0, func() bool { return n.rejoining })
	}
	return true
}

// announce refreshes the registration every ten periods, jittered by up to
// one period so co-started nodes spread their Announces across the lease.
func (n *Node) announce() {
	if !n.Alive() {
		return
	}
	if n.Joined() {
		n.host.Send(n.cfg.Self, n.cfg.Bootstrap, bootstrap.Announce{})
	}
	p := n.cfg.Period
	n.host.Engine().Schedule(10*p+simnet.Time(n.rng.Int63n(int64(p)+1)), n.announce)
}
