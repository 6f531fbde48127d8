package transport

import (
	"sync"

	"vitis/internal/simnet"
	"vitis/internal/telemetry"
)

// inboxCap bounds the queue of inbound messages waiting for the driver.
// Beyond it the host drops — the protocols are gossip-based and tolerate
// loss, exactly as they tolerate UDP loss.
const inboxCap = 1024

// Host implements simnet.Net on top of a Transport, so the protocol stacks
// (core.Node, sampling, tman, bootstrap) run over real carriers unchanged.
//
// A Host built with NewHost is asynchronous: inbound messages land in a
// bounded inbox and a Driver dispatches them on the engine goroutine, which
// is the concurrency model of a real node (one protocol thread, transport
// threads feeding it). A Host built with NewSyncHost dispatches inbound
// messages inline on the caller's goroutine; that mode is for the Sim
// transport, where delivery already happens on the engine goroutine.
type Host struct {
	eng *simnet.Engine
	tr  Transport

	// loopLocal short-circuits sends to locally hosted nodes through the
	// engine instead of the transport. Real transports want this (a
	// process does not talk to itself over the wire); the Sim transport
	// does not, so the simulator keeps full control of latency and
	// bandwidth accounting.
	loopLocal bool

	mu    sync.RWMutex
	local map[simnet.NodeID]simnet.Handler

	// inbox is non-nil only for async hosts.
	inbox chan inboxMsg

	// tel holds the host's traffic counters; always non-nil (a private
	// live bundle when the constructor got nil).
	tel *telemetry.HostMetrics
}

type inboxMsg struct {
	from, to simnet.NodeID
	msg      simnet.Message
}

// NewHost builds an asynchronous Host over tr. Run a Driver on it to pump
// timers and inbound messages. A nil metrics bundle gets a private live one
// (Counters() still works); pass one built from a registry to expose the
// counters on /metrics.
func NewHost(eng *simnet.Engine, tr Transport, m *telemetry.HostMetrics) *Host {
	h := newHost(eng, tr, true, m)
	h.inbox = make(chan inboxMsg, inboxCap)
	return h
}

// NewSyncHost builds a Host that dispatches inbound messages inline, for
// transports (Sim) that deliver on the engine goroutine already.
func NewSyncHost(eng *simnet.Engine, tr Transport) *Host {
	return newHost(eng, tr, false, nil)
}

func newHost(eng *simnet.Engine, tr Transport, loopLocal bool, m *telemetry.HostMetrics) *Host {
	if m == nil {
		m = telemetry.NewHostMetrics(nil)
	}
	h := &Host{
		eng:       eng,
		tr:        tr,
		loopLocal: loopLocal,
		local:     make(map[simnet.NodeID]simnet.Handler),
		tel:       m,
	}
	tr.SetReceiver(h.receive)
	return h
}

// Engine implements simnet.Net.
func (h *Host) Engine() *simnet.Engine { return h.eng }

// Attach implements simnet.Net.
func (h *Host) Attach(id simnet.NodeID, hd simnet.Handler) {
	h.mu.Lock()
	h.local[id] = hd
	h.mu.Unlock()
	h.tr.Attach(id)
}

// Detach implements simnet.Net.
func (h *Host) Detach(id simnet.NodeID) {
	h.mu.Lock()
	delete(h.local, id)
	h.mu.Unlock()
	h.tr.Detach(id)
}

// Alive implements simnet.Net.
func (h *Host) Alive(id simnet.NodeID) bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.local[id] != nil
}

// Send implements simnet.Net. Sends to locally hosted nodes loop through
// the engine (zero added latency, like a kernel loopback); everything else
// goes to the transport. Failures are counted, not surfaced: the protocol
// layers treat the network as best-effort.
func (h *Host) Send(from, to simnet.NodeID, msg simnet.Message) {
	h.tel.Sent.Inc()
	if h.loopLocal && h.Alive(to) {
		h.eng.Schedule(0, func() { h.dispatch(from, to, msg) })
		return
	}
	if err := h.tr.Send(from, to, msg); err != nil {
		h.tel.SendErrors.Inc()
	}
}

// Flush writes what this turn's Sends left queued in the transport. The
// Driver calls it at the end of every turn.
func (h *Host) Flush() { h.tr.Flush() }

// receive is the RecvFunc installed on the transport.
func (h *Host) receive(from, to simnet.NodeID, msg simnet.Message) {
	if h.inbox == nil {
		h.dispatch(from, to, msg)
		return
	}
	select {
	case h.inbox <- inboxMsg{from, to, msg}:
		h.tel.InboxDepth.Add(1)
	default:
		h.tel.InboxDrops.Inc()
	}
}

// dispatch hands a message to the local handler. Must run on the engine
// goroutine (inline for sync hosts, via the Driver for async ones).
func (h *Host) dispatch(from, to simnet.NodeID, msg simnet.Message) {
	h.mu.RLock()
	hd := h.local[to]
	h.mu.RUnlock()
	if hd == nil {
		h.tel.NoHandler.Inc()
		return
	}
	h.tel.Received.Inc()
	hd.Deliver(from, msg)
}

// HostCounters is a snapshot of a Host's traffic counters.
type HostCounters struct {
	Sent       uint64
	Received   uint64
	SendErrors uint64
	InboxDrops uint64
	NoHandler  uint64
}

// Counters returns a snapshot of the host's traffic counters.
func (h *Host) Counters() HostCounters {
	return HostCounters{
		Sent:       h.tel.Sent.Value(),
		Received:   h.tel.Received.Value(),
		SendErrors: h.tel.SendErrors.Value(),
		InboxDrops: h.tel.InboxDrops.Value(),
		NoHandler:  h.tel.NoHandler.Value(),
	}
}
