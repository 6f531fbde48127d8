package transport

import (
	"sync"

	"vitis/internal/simnet"
)

// Sim adapts the simulator's *simnet.Network to the Transport interface, so
// code written against Host+Transport can be exercised under the
// deterministic engine. Pair it with NewSyncHost: the network delivers on
// the engine goroutine, and every message (including ones between two nodes
// of the same Host) goes through the network so latency models and
// bandwidth accounting stay in charge.
type Sim struct {
	net *simnet.Network

	mu   sync.Mutex
	recv RecvFunc
}

// NewSim wraps a simulator network as a Transport.
func NewSim(net *simnet.Network) *Sim { return &Sim{net: net} }

// SetReceiver implements Transport.
func (s *Sim) SetReceiver(recv RecvFunc) {
	s.mu.Lock()
	s.recv = recv
	s.mu.Unlock()
}

// Attach implements Transport by registering id on the simulated network;
// deliveries are forwarded to the receiver.
func (s *Sim) Attach(id simnet.NodeID) {
	s.net.Attach(id, simnet.HandlerFunc(func(from simnet.NodeID, msg simnet.Message) {
		s.mu.Lock()
		recv := s.recv
		s.mu.Unlock()
		if recv != nil {
			recv(from, id, msg)
		}
	}))
}

// Detach implements Transport.
func (s *Sim) Detach(id simnet.NodeID) { s.net.Detach(id) }

// Send implements Transport.
func (s *Sim) Send(from, to simnet.NodeID, msg simnet.Message) error {
	s.net.Send(from, to, msg)
	return nil
}

// Flush implements Transport; the simulator network queues nothing here.
func (s *Sim) Flush() {}

// Close implements Transport; the simulator owns no resources to release.
func (s *Sim) Close() error { return nil }
