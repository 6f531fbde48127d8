package transport

import (
	"errors"
	"sync"
	"sync/atomic"

	"vitis/internal/simnet"
	"vitis/internal/wire"
)

// ErrUnknownPeer reports a send to a node no endpoint has attached.
var ErrUnknownPeer = errors.New("transport: unknown peer")

// ErrClosed reports an operation on a closed transport.
var ErrClosed = errors.New("transport: closed")

// Loopback is an in-process message bus connecting several Hosts as if they
// were separate processes: every message is encoded to a wire frame and
// decoded again on the receiving side, so the full codec path is exercised
// without sockets. Each would-be process takes one Endpoint.
type Loopback struct {
	mu     sync.Mutex
	routes map[simnet.NodeID]*LoopbackEndpoint
	closed bool

	frames atomic.Uint64 // frames carried end to end
}

// NewLoopback builds an empty bus.
func NewLoopback() *Loopback {
	return &Loopback{routes: make(map[simnet.NodeID]*LoopbackEndpoint)}
}

// Endpoint returns a new Transport on the bus, one per simulated process.
func (l *Loopback) Endpoint() *LoopbackEndpoint {
	return &LoopbackEndpoint{bus: l}
}

// Frames reports how many frames the bus carried.
func (l *Loopback) Frames() uint64 { return l.frames.Load() }

// LoopbackEndpoint is one process's attachment point to a Loopback bus.
type LoopbackEndpoint struct {
	bus *Loopback

	mu   sync.Mutex
	recv RecvFunc
}

// SetReceiver implements Transport.
func (e *LoopbackEndpoint) SetReceiver(recv RecvFunc) {
	e.mu.Lock()
	e.recv = recv
	e.mu.Unlock()
}

// Attach implements Transport by routing id's traffic to this endpoint.
func (e *LoopbackEndpoint) Attach(id simnet.NodeID) {
	e.bus.mu.Lock()
	e.bus.routes[id] = e
	e.bus.mu.Unlock()
}

// Detach implements Transport.
func (e *LoopbackEndpoint) Detach(id simnet.NodeID) {
	e.bus.mu.Lock()
	if e.bus.routes[id] == e {
		delete(e.bus.routes, id)
	}
	e.bus.mu.Unlock()
}

// Send implements Transport: encode, route, decode, deliver.
func (e *LoopbackEndpoint) Send(from, to simnet.NodeID, msg simnet.Message) error {
	frame, err := wire.Encode(from, to, msg)
	if err != nil {
		return err
	}
	e.bus.mu.Lock()
	dst := e.bus.routes[to]
	closed := e.bus.closed
	e.bus.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if dst == nil {
		return ErrUnknownPeer
	}
	f, t, decoded, err := wire.Decode(frame)
	if err != nil {
		return err
	}
	e.bus.frames.Add(1)
	dst.mu.Lock()
	recv := dst.recv
	dst.mu.Unlock()
	if recv != nil {
		recv(f, t, decoded)
	}
	return nil
}

// Flush implements Transport; Send delivers inline, so nothing is queued.
func (e *LoopbackEndpoint) Flush() {}

// Close implements Transport by closing the whole bus.
func (e *LoopbackEndpoint) Close() error {
	e.bus.mu.Lock()
	e.bus.closed = true
	e.bus.mu.Unlock()
	return nil
}
