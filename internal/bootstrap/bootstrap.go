// Package bootstrap implements the bootstrap node of Algorithm 1: a
// well-known rendezvous that joining nodes contact to "receive a number of
// nodes to start communicating with". It keeps a bounded registry of
// recently seen peers and answers join requests with a random sample.
//
// The registry entries age out, so nodes that crash without deregistering
// stop being handed to joiners after their lease expires.
package bootstrap

import (
	"math/rand"
	"sort"

	"vitis/internal/simnet"
)

// Wire messages.
type (
	// JoinReq asks for up to Want peers; the sender is registered.
	JoinReq struct{ Want int }
	// JoinResp lists peers to bootstrap from.
	JoinResp struct{ Peers []simnet.NodeID }
	// Announce refreshes the sender's registration without asking for
	// peers (periodic keep-alive).
	Announce struct{}
)

// WireSize implements simnet.Sized: Want as a 4-byte integer.
func (m JoinReq) WireSize() int { return 4 }

// WireSize implements simnet.Sized: a 2-byte count plus 8 bytes per peer
// id — exactly what internal/wire encodes.
func (m JoinResp) WireSize() int { return 2 + 8*len(m.Peers) }

// WireSize implements simnet.Sized.
func (m Announce) WireSize() int { return 1 }

const (
	// maxWant caps the peers one JoinReq is answered with. Want is an
	// untrusted integer off the wire, and without the cap one small
	// datagram would have the whole registry sent to whatever address its
	// envelope names.
	maxWant = 32
	// maxPeers bounds the registry; a full registry still samples well.
	maxPeers = 1024
	// defaultWant is handed out when a JoinReq asks for <= 0 peers.
	defaultWant = 3
)

// Service is the bootstrap node. Attach it to the network under its id.
type Service struct {
	net   simnet.Net
	self  simnet.NodeID
	lease simnet.Time
	rng   *rand.Rand
	// expiry maps each registered peer to the end of its lease.
	expiry map[simnet.NodeID]simnet.Time
}

// New creates a bootstrap service whose registrations live lease without
// a refresh; deploy.Bootstrap builds one and attaches it.
func New(net simnet.Net, self simnet.NodeID, lease simnet.Time) *Service {
	return &Service{net: net, self: self, lease: lease,
		rng: net.Engine().DeriveRNG(int64(self) ^ 0x6273), expiry: make(map[simnet.NodeID]simnet.Time)}
}

// Deliver implements simnet.Handler.
func (s *Service) Deliver(from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case JoinReq:
		peers := s.sample(from, m.Want)
		s.register(from)
		s.net.Send(s.self, from, JoinResp{Peers: peers})
	case Announce:
		s.register(from)
	}
}

func (s *Service) register(id simnet.NodeID) {
	now := s.net.Engine().Now()
	s.gc(now)
	if _, known := s.expiry[id]; !known && len(s.expiry) >= maxPeers {
		return // registry full; the sample set is large enough anyway
	}
	s.expiry[id] = now + s.lease
}

func (s *Service) gc(now simnet.Time) {
	for id, exp := range s.expiry {
		if exp <= now {
			delete(s.expiry, id)
		}
	}
}

// sample returns up to want (at most maxWant) random live registrations,
// excluding the asker.
func (s *Service) sample(asker simnet.NodeID, want int) []simnet.NodeID {
	if want <= 0 {
		want = defaultWant
	}
	want = min(want, maxWant)
	now := s.net.Engine().Now()
	s.gc(now)
	ids := make([]simnet.NodeID, 0, len(s.expiry))
	for id := range s.expiry {
		if id != asker {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) > want {
		s.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		ids = ids[:want]
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	return ids
}

// Size returns the number of live registrations.
func (s *Service) Size() int {
	s.gc(s.net.Engine().Now())
	return len(s.expiry)
}
