// Package deploy assembles the node a real deployment runs: a core.Node
// with Recovery on and wall-clock timestamps, kept in the overlay by the
// client side of Algorithm 1 (membership): joined through a bootstrap node
// with jittered exponential backoff, kept registered by periodic
// Announces, and put back into the overlay through the bootstrap node when
// it finds itself isolated (§III-D).
//
// The caller owns the simnet.Net — UDP for cmd/vitis-node, the simulator
// for the public API and this package's tests — and runs its engine; New,
// Join and Bootstrap only schedule work on it.
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

const (
	// want is how many peers a JoinReq asks of the bootstrap node.
	want = 8
	// maxBackoff caps the wait between two JoinReqs of one node.
	maxBackoff = 30 * time.Second
)

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

// Node is a deployed node: the protocol stack and its membership.
type Node struct {
	*core.Node
	*membership
	metrics *telemetry.NodeMetrics
}

// New builds the node on net and joins it through cfg.Bootstrap.
func New(net simnet.Net, cfg Config) *Node {
	n := &Node{metrics: telemetry.NewNodeMetrics(cfg.Registry)}
	n.Node = core.NewNode(net, cfg.Self, core.Params{
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
	n.membership = Join(net, n.Node, cfg.Bootstrap, cfg.Period, cfg.Log)
	cfg.Registry.GaugeFunc("vitis_node_joined", "1 once the node has joined the overlay.",
		func() float64 {
			if n.Joined() {
				return 1
			}
			return 0
		})
	return n
}

// Metrics is the node's telemetry bundle.
func (n *Node) Metrics() *telemetry.NodeMetrics { return n.metrics }

// Bootstrap attaches Algorithm 1's bootstrap node to net under self. A
// registration lives 30 periods, three announce intervals.
func Bootstrap(net simnet.Net, self simnet.NodeID, period simnet.Time) *bootstrap.Service {
	bs := bootstrap.New(net, self, 30*period)
	net.Attach(self, simnet.HandlerFunc(bs.Deliver))
	return bs
}

// phase is where a node stands in its membership lifecycle.
type phase int32

const (
	joining  phase = iota // no JoinResp yet
	joined                // in the overlay
	isolated              // joined, lost every neighbour, asking again
)

// membership is the client side of Algorithm 1 for one core.Node. One
// backoff spaces every JoinReq the node sends: its attempt counter
// survives isolation episodes and resets only when a peer speaks to the
// node while it has neighbours, and at most one JoinReq is pending at a
// time. Each episode logs at most two lines. Apart from Joined, every
// method runs on the net's engine goroutine.
type membership struct {
	net       simnet.Net
	node      *core.Node
	bootstrap simnet.NodeID
	period    simnet.Time
	log       io.Writer
	rng       *rand.Rand

	phase    atomic.Int32 // read off the engine goroutine by Joined
	joinedAt simnet.Time
	attempt  int  // JoinReqs sent since a peer last spoke to a connected node
	asking   bool // a JoinReq is scheduled
}

// Join joins node, which has not joined yet, through the bootstrap node:
// the first JoinReq goes out at once, the isolation check runs every two
// periods and the Announces every ten. A nil log discards the lines.
func Join(net simnet.Net, node *core.Node, bootstrap simnet.NodeID, period simnet.Time, log io.Writer) *membership {
	if log == nil {
		log = io.Discard
	}
	m := &membership{net: net, node: node, bootstrap: bootstrap, period: period, log: log,
		rng: net.Engine().DeriveRNG(int64(node.ID()) ^ 0x6a6e)}
	net.Attach(node.ID(), simnet.HandlerFunc(m.deliver))
	m.retry()
	net.Engine().Every(2*period, m.check)
	net.Engine().Schedule(10*period, m.announce)
	return m
}

// Joined reports whether the first JoinResp has arrived; safe from any goroutine.
func (m *membership) Joined() bool { return m.state() != joining }

// JoinedAt is the engine time of the join; zero before it.
func (m *membership) JoinedAt() simnet.Time { return m.joinedAt }

func (m *membership) state() phase { return phase(m.phase.Load()) }
func (m *membership) set(p phase)  { m.phase.Store(int32(p)) }

// deliver fronts the protocol stack: JoinResps drive the join and the
// rejoin, everything else reaches the node once it has joined.
func (m *membership) deliver(from simnet.NodeID, msg simnet.Message) {
	resp, ok := msg.(bootstrap.JoinResp)
	switch {
	case !ok:
		if m.Joined() {
			m.node.Deliver(from, msg)
			if from != m.bootstrap && !m.node.Isolated() {
				m.attempt = 0 // a peer spoke to a connected node
			}
		}
	case m.state() == joining:
		m.set(joined)
		m.joinedAt = m.net.Engine().Now()
		m.node.Join(resp.Peers)
		// Walk the subscribed topics' history on neighbour stores: a node
		// that was offline (or is brand new) backfills what it missed.
		m.node.StartCatchUp()
		// Join attached the bare node; put this handler back in front.
		m.net.Attach(m.node.ID(), simnet.HandlerFunc(m.deliver))
		fmt.Fprintf(m.log, "joined with %d peers\n", len(resp.Peers))
	case m.state() == isolated && len(resp.Peers) > 0:
		m.set(joined)
		m.node.Rejoin(resp.Peers)
		// Replay (inside Rejoin) closes short gaps from the ring buffers;
		// the store walk backfills anything older.
		m.node.StartCatchUp()
		fmt.Fprintf(m.log, "rejoined with %d peers\n", len(resp.Peers))
	}
}

// ask sends a JoinReq and schedules the next one while the node is joining
// or isolated.
func (m *membership) ask() {
	if m.state() == joined || !m.node.Alive() {
		m.asking = false
		return
	}
	m.net.Send(m.node.ID(), m.bootstrap, bootstrap.JoinReq{Want: want})
	m.attempt++
	m.retry()
}

// retry schedules the next ask: at once after a reset, else one jittered
// backoff delay from now, so rebooting fleets do not hammer the bootstrap
// node in lockstep.
func (m *membership) retry() {
	d := simnet.Time(0)
	if m.attempt > 0 {
		b := transport.Backoff{Base: time.Duration(m.period) * time.Millisecond, Max: maxBackoff}
		d = max(simnet.Time(b.Delay(m.attempt-1, m.rng)/time.Millisecond), 1)
	}
	m.asking = true
	m.net.Engine().Schedule(d, m.ask)
}

// check catches a joined node that lost every neighbour — after a long
// partition both sides evict each other and nobody dials back — and ends
// the episode when a neighbour reappears.
func (m *membership) check() bool {
	if !m.node.Alive() {
		return false
	}
	switch alone := m.node.Isolated(); {
	case m.state() == joined && alone:
		m.set(isolated)
		fmt.Fprintf(m.log, "isolated; rejoining via bootstrap %016x\n", uint64(m.bootstrap))
		if !m.asking {
			m.retry()
		}
	case m.state() == isolated && !alone:
		m.set(joined)
	}
	return true
}

// announce refreshes the registration every ten periods, jittered by up to
// one period so co-started nodes spread their Announces across the lease.
func (m *membership) announce() {
	if !m.node.Alive() {
		return
	}
	if m.Joined() {
		m.net.Send(m.node.ID(), m.bootstrap, bootstrap.Announce{})
	}
	p := m.period
	m.net.Engine().Schedule(10*p+simnet.Time(m.rng.Int63n(int64(p)+1)), m.announce)
}
