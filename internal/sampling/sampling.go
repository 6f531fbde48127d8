// Package sampling implements a gossip-based peer sampling service in the
// style of Newscast / Jelasity et al., the membership substrate all three
// systems in the paper share (§IV: "they use the same peer sampling
// service").
//
// Every node keeps a small view of (id, age) descriptors. Once per period it
// ages its view, picks a random live-looking peer, and swaps views; both
// sides keep the freshest ViewSize distinct descriptors. Fresh random
// samples for the topology-construction layer come straight out of the view.
package sampling

import (
	"cmp"
	"math/rand"
	"slices"

	"vitis/internal/simnet"
	"vitis/internal/telemetry"
)

// Descriptor is one view entry: a node id and its age in gossip rounds.
// Lower age means fresher information.
type Descriptor struct {
	ID  simnet.NodeID
	Age int
}

// The view and sample sizes all three systems run with (§IV-A).
const (
	// ViewSize is how many descriptors a node's view holds.
	ViewSize = 20
	// SampleSize is how many ids the overlay layer draws from the view per
	// T-Man round.
	SampleSize = 10
)

// Config parameterises the service. Zero values take the defaults noted on
// the fields.
type Config struct {
	Period simnet.Time // default 1 simulated second
	// Metrics instruments the layer's gossip rounds and view staleness.
	// Nil (or a bundle with nil instruments) disables at no cost.
	Metrics *telemetry.GossipMetrics
}

func (c *Config) setDefaults() {
	if c.Period == 0 {
		c.Period = simnet.Second
	}
	if c.Metrics == nil {
		c.Metrics = &telemetry.GossipMetrics{}
	}
}

// Request and Reply are the two wire messages of the service.
type (
	// Request carries the initiator's merged view.
	Request struct{ View []Descriptor }
	// Reply carries the responder's merged view.
	Reply struct{ View []Descriptor }
)

// Service is the per-node peer sampling instance.
type Service struct {
	net     simnet.Net
	self    simnet.NodeID
	cfg     Config
	rng     *rand.Rand
	view    []Descriptor
	stopped bool
	// viewSize is ViewSize except in tests, which shrink the view.
	viewSize int

	// Scratch owned by the service: spare is the view's second buffer
	// (merge writes the new view into it and swaps), in the filtered
	// incoming list and perm the draw of SampleInto.
	spare, in []Descriptor
	perm      []int

	exchanges uint64
}

// New creates a service for node self, initialised with the given bootstrap
// peers (age 0).
func New(net simnet.Net, self simnet.NodeID, cfg Config, bootstrap []simnet.NodeID, rng *rand.Rand) *Service {
	cfg.setDefaults()
	s := &Service{net: net, self: self, cfg: cfg, rng: rng, viewSize: ViewSize}
	for _, id := range bootstrap {
		if id != self {
			s.view = append(s.view, Descriptor{ID: id})
		}
	}
	s.truncate()
	return s
}

// Start begins the periodic gossip; it keeps running until Stop.
func (s *Service) Start() {
	s.net.Engine().Every(s.cfg.Period, func() bool {
		if s.stopped {
			return false
		}
		s.tick()
		return true
	})
}

// Stop halts gossip permanently (node leave or crash).
func (s *Service) Stop() { s.stopped = true }

// Seed merges fresh (age 0) descriptors for the given peers into the view —
// the recovery counterpart of the bootstrap list passed to New, used when a
// node re-enters the overlay after isolation.
func (s *Service) Seed(peers []simnet.NodeID) {
	if s.stopped || len(peers) == 0 {
		return
	}
	ds := make([]Descriptor, 0, len(peers))
	for _, id := range peers {
		ds = append(ds, Descriptor{ID: id})
	}
	s.merge(ds)
}

// Stopped reports whether Stop was called.
func (s *Service) Stopped() bool { return s.stopped }

func (s *Service) tick() {
	if len(s.view) == 0 {
		return
	}
	ageSum := 0
	for i := range s.view {
		s.view[i].Age++
		ageSum += s.view[i].Age
	}
	s.cfg.Metrics.Rounds.Inc()
	s.cfg.Metrics.ViewAge.Set(int64(ageSum / len(s.view)))
	peer := s.view[s.rng.Intn(len(s.view))].ID
	s.exchanges++
	s.net.Send(s.self, peer, Request{View: s.outgoingView()})
}

// outgoingView is the local view plus a fresh self descriptor.
func (s *Service) outgoingView() []Descriptor {
	out := make([]Descriptor, 0, len(s.view)+1)
	out = append(out, Descriptor{ID: s.self, Age: 0})
	out = append(out, s.view...)
	return out
}

// HandleMessage consumes sampling-protocol messages; it reports false for
// anything else so the caller can dispatch further.
func (s *Service) HandleMessage(from simnet.NodeID, msg simnet.Message) bool {
	switch m := msg.(type) {
	case Request:
		if !s.stopped {
			s.net.Send(s.self, from, Reply{View: s.outgoingView()})
			s.merge(m.View)
		}
		return true
	case Reply:
		if !s.stopped {
			s.merge(m.View)
		}
		return true
	default:
		return false
	}
}

// merge folds the incoming view into the local one, keeping the freshest
// descriptor per id and then the viewSize freshest overall, in (age, id)
// order. The view stays in that order from its first merge on (a bootstrap
// view is in caller order until then) and an incoming view is mostly in it
// already, so each side is sorted only if it is not, and one walk over both
// in (age, id) order keeps the first occurrence of each id: its freshest.
func (s *Service) merge(incoming []Descriptor) {
	in := s.in[:0]
	for _, d := range incoming {
		if d.ID != s.self {
			in = append(in, d)
		}
	}
	s.in = in
	sortByAge(in)
	sortByAge(s.view)
	if cap(s.spare) < s.viewSize {
		s.spare = make([]Descriptor, 0, s.viewSize)
	}
	out, view := s.spare[:0], s.view
	for len(out) < s.viewSize && len(view)+len(in) > 0 {
		var d Descriptor
		if len(in) == 0 || len(view) > 0 && byAge(view[0], in[0]) <= 0 {
			d, view = view[0], view[1:]
		} else {
			d, in = in[0], in[1:]
		}
		if !slices.ContainsFunc(out, func(e Descriptor) bool { return e.ID == d.ID }) {
			out = append(out, d)
		}
	}
	s.spare, s.view = s.view[:0], out
}

// byAge orders descriptors by (age, id): freshest first, deterministic.
func byAge(a, b Descriptor) int {
	return cmp.Or(cmp.Compare(a.Age, b.Age), cmp.Compare(a.ID, b.ID))
}

// sortByAge sorts ds by (age, id) unless it already is.
func sortByAge(ds []Descriptor) {
	if !slices.IsSortedFunc(ds, byAge) {
		slices.SortFunc(ds, byAge)
	}
}

func (s *Service) truncate() {
	if len(s.view) > s.viewSize {
		s.view = s.view[:s.viewSize]
	}
}

// View returns a copy of the current view.
func (s *Service) View() []Descriptor {
	return append([]Descriptor(nil), s.view...)
}

// Sample returns up to n distinct node ids drawn uniformly from the current
// view, as a fresh slice.
func (s *Service) Sample(n int) []simnet.NodeID { return s.SampleInto(nil, n) }

// SampleInto is Sample into dst[:0]: it returns dst holding up to n distinct
// ids drawn uniformly from the view. A partial sample makes exactly the
// draws rand.Perm over the view would, into the service's own scratch, so
// the ids and the RNG state afterwards are Perm's and a warm call
// allocates nothing.
func (s *Service) SampleInto(dst []simnet.NodeID, n int) []simnet.NodeID {
	dst = dst[:0]
	if n >= len(s.view) {
		for _, d := range s.view {
			dst = append(dst, d.ID)
		}
		return dst
	}
	perm := s.perm[:0]
	for i := range s.view {
		j := s.rng.Intn(i + 1)
		perm = append(perm, 0)
		perm[i] = perm[j]
		perm[j] = i
	}
	s.perm = perm
	for _, i := range perm[:n] {
		dst = append(dst, s.view[i].ID)
	}
	return dst
}

// Exchanges returns how many gossip exchanges this node initiated (used by
// tests and overhead accounting).
func (s *Service) Exchanges() uint64 { return s.exchanges }

// WireSize implements simnet.Sized: a 2-byte count plus 12 bytes per
// (id, age) descriptor — exactly what internal/wire encodes.
func (m Request) WireSize() int { return 2 + 12*len(m.View) }

// WireSize implements simnet.Sized.
func (m Reply) WireSize() int { return 2 + 12*len(m.View) }
