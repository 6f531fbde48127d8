// Package tman implements the generic T-Man topology-construction protocol
// (Jelasity & Babaoglu) that both Vitis and the baselines use to build their
// routing tables — Algorithms 2 and 3 of the paper.
//
// The exchanger owns the node's routing table as a list of descriptors and
// periodically swaps candidate buffers with a random current neighbor; the
// embedding protocol supplies the ranking logic through its SelectNeighbors
// function (Algorithm 4 for Vitis, subscription-oblivious small-world
// selection for RVR, pure utility-greedy selection for OPT).
package tman

import (
	"math/rand"

	"vitis/internal/simnet"
	"vitis/internal/telemetry"
)

// Descriptor is a routing-table or candidate-buffer entry: a node id plus a
// protocol-specific payload (for Vitis, the node's subscription summary).
type Descriptor struct {
	ID      simnet.NodeID
	Payload any
}

// Callbacks supplies the protocol-specific pieces of the exchange.
type Callbacks struct {
	// SelfDescriptor returns the node's own current descriptor, included
	// in every outgoing buffer.
	SelfDescriptor func() Descriptor
	// SampleNodes returns fresh descriptors from the peer sampling layer
	// (payload may be nil for nodes whose profile is unknown yet). The
	// slice may be the callee's scratch: it is valid until the next call,
	// and the exchanger copies what it keeps before calling again.
	SampleNodes func() []Descriptor
	// SelectNeighbors reduces a deduplicated candidate buffer (never
	// containing self) to the new routing table.
	SelectNeighbors func(buffer []Descriptor) []Descriptor
	// SamplePeerProb is the probability of gossiping with a freshly
	// sampled peer instead of a routing-table neighbor. Zero keeps the
	// paper's T-Man behaviour (always a current neighbor); protocols whose
	// tables can close into cliques (OPT) set it positive so membership
	// knowledge keeps crossing cluster boundaries.
	SamplePeerProb float64
	// Metrics instruments the exchanger's gossip rounds; nil disables.
	Metrics *telemetry.GossipMetrics
}

// Exchange messages.
type (
	// Request carries the initiator's candidate buffer.
	Request struct{ Buffer []Descriptor }
	// Reply carries the responder's candidate buffer.
	Reply struct{ Buffer []Descriptor }
)

// Exchanger runs the periodic view exchange for one node.
type Exchanger struct {
	net     simnet.Net
	self    simnet.NodeID
	period  simnet.Time
	rng     *rand.Rand
	cb      Callbacks
	rt      []Descriptor
	stopped bool
}

// New creates an exchanger. The routing table starts from bootstrap (self
// excluded, deduplicated).
func New(net simnet.Net, self simnet.NodeID, period simnet.Time, cb Callbacks, bootstrap []Descriptor, rng *rand.Rand) *Exchanger {
	if period <= 0 {
		period = simnet.Second
	}
	x := &Exchanger{net: net, self: self, period: period, cb: cb, rng: rng}
	if x.cb.Metrics == nil {
		x.cb.Metrics = &telemetry.GossipMetrics{}
	}
	x.rt = appendUnique(nil, self, bootstrap)
	return x
}

// Start begins periodic exchanges until Stop.
func (x *Exchanger) Start() {
	x.net.Engine().Every(x.period, func() bool {
		if x.stopped {
			return false
		}
		x.tick()
		return true
	})
}

// Stop halts the exchanger permanently.
func (x *Exchanger) Stop() { x.stopped = true }

// Seed offers fresh descriptors to the selection function, exactly as if
// they had arrived in an exchange — the recovery counterpart of the
// bootstrap list passed to New, used when a node re-enters the overlay
// after isolation.
func (x *Exchanger) Seed(ds []Descriptor) {
	if x.stopped || len(ds) == 0 {
		return
	}
	x.applySelect(ds)
}

// tick is the active thread of Algorithm 2: pick a random neighbor, send it
// our merged buffer; the routing table is refreshed when the reply arrives.
func (x *Exchanger) tick() {
	x.cb.Metrics.Rounds.Inc()
	var peer simnet.NodeID
	fromSamples := x.cb.SamplePeerProb > 0 && x.cb.SampleNodes != nil &&
		x.rng.Float64() < x.cb.SamplePeerProb
	if fromSamples {
		if samples := x.cb.SampleNodes(); len(samples) > 0 {
			x.net.Send(x.self, samples[x.rng.Intn(len(samples))].ID, Request{Buffer: x.buildBuffer()})
			return
		}
	}
	if len(x.rt) > 0 {
		peer = x.rt[x.rng.Intn(len(x.rt))].ID
	} else if x.cb.SampleNodes != nil {
		// Empty table: gossip with a sampled peer so an isolated node
		// can still re-enter the overlay.
		samples := x.cb.SampleNodes()
		if len(samples) == 0 {
			return
		}
		peer = samples[x.rng.Intn(len(samples))].ID
	} else {
		return
	}
	x.net.Send(x.self, peer, Request{Buffer: x.buildBuffer()})
}

// buildBuffer merges the routing table and fresh samples behind our own
// descriptor, dedups by id keeping the first occurrence, and excludes every
// other copy of self (Algorithm 2 lines 3–4). The result is the exchange's
// one allocation: it becomes the outgoing message's buffer, which the
// simulator holds until delivery.
func (x *Exchanger) buildBuffer() []Descriptor {
	samples := x.samples()
	// Self goes in front so the receiver sees our freshest payload even if
	// a stale descriptor of us floats in its buffer.
	out := make([]Descriptor, 1, 1+len(x.rt)+len(samples))
	out[0] = x.cb.SelfDescriptor()
	out = appendUnique(out, x.self, x.rt)
	return appendUnique(out, x.self, samples)
}

// applySelect hands the deduplicated union of incoming, the routing table
// and fresh samples to SelectNeighbors, and stores its choice as the new
// table in the table's own backing array.
func (x *Exchanger) applySelect(incoming []Descriptor) {
	samples := x.samples()
	buffer := make([]Descriptor, 0, len(incoming)+len(x.rt)+len(samples))
	buffer = appendUnique(buffer, x.self, incoming)
	buffer = appendUnique(buffer, x.self, x.rt)
	buffer = appendUnique(buffer, x.self, samples)
	selected := x.cb.SelectNeighbors(buffer)
	old := len(x.rt)
	x.rt = appendUnique(x.rt[:0], x.self, selected)
	if len(x.rt) < old {
		clear(x.rt[len(x.rt):old]) // do not pin dropped payloads
	}
}

func (x *Exchanger) samples() []Descriptor {
	if x.cb.SampleNodes == nil {
		return nil
	}
	return x.cb.SampleNodes()
}

// HandleMessage consumes T-Man messages; it reports false for others.
func (x *Exchanger) HandleMessage(from simnet.NodeID, msg simnet.Message) bool {
	switch m := msg.(type) {
	case Request:
		if !x.stopped {
			// Passive thread (Algorithm 3): reply with our buffer,
			// then refresh our own table from the incoming one.
			x.net.Send(x.self, from, Reply{Buffer: x.buildBuffer()})
			x.applySelect(m.Buffer)
		}
		return true
	case Reply:
		if !x.stopped {
			x.applySelect(m.Buffer)
		}
		return true
	default:
		return false
	}
}

// RT returns a copy of the current routing table.
func (x *Exchanger) RT() []Descriptor {
	return append([]Descriptor(nil), x.rt...)
}

// RTRef returns the live routing table without copying. The slice is
// read-only and only valid until the next exchange, Remove or ForceSelect;
// hot paths that walk the table every message use it to stay allocation-free.
func (x *Exchanger) RTRef() []Descriptor { return x.rt }

// Len returns the current routing-table size without copying it.
func (x *Exchanger) Len() int { return len(x.rt) }

// Contains reports whether id is currently in the routing table.
func (x *Exchanger) Contains(id simnet.NodeID) bool { return containsID(x.rt, id) }

// Remove deletes id from the routing table (failure detection by the
// embedding protocol). It reports whether the entry existed.
func (x *Exchanger) Remove(id simnet.NodeID) bool {
	for i, d := range x.rt {
		if d.ID == id {
			x.rt = append(x.rt[:i], x.rt[i+1:]...)
			return true
		}
	}
	return false
}

// UpdatePayload refreshes the payload stored for id if present (profiles
// arriving through the heartbeat protocol).
func (x *Exchanger) UpdatePayload(id simnet.NodeID, payload any) {
	for i := range x.rt {
		if x.rt[i].ID == id {
			x.rt[i].Payload = payload
			return
		}
	}
}

// ForceSelect re-runs neighbor selection immediately over the current table
// and samples. Used right after bootstrap so a joining node does not wait a
// full period for its first table.
func (x *Exchanger) ForceSelect() { x.applySelect(nil) }

// appendUnique appends the descriptors of src to dst, skipping self and any
// id already in dst (first occurrence wins). Buffers hold a few dozen
// entries, where scanning dst beats hashing into a map that would have to
// be allocated per exchange or kept per exchanger.
func appendUnique(dst []Descriptor, self simnet.NodeID, src []Descriptor) []Descriptor {
	for _, d := range src {
		if d.ID != self && !containsID(dst, d.ID) {
			dst = append(dst, d)
		}
	}
	return dst
}

func containsID(ds []Descriptor, id simnet.NodeID) bool {
	for _, d := range ds {
		if d.ID == id {
			return true
		}
	}
	return false
}

// descriptorWireSize is one descriptor's encoded bytes: the id, a payload
// kind byte, and the payload itself when present. For subscription-summary
// payloads this matches internal/wire exactly; payloads that only exist in
// simulation report their own WireSize or a reflectionless estimate.
func descriptorWireSize(d Descriptor) int {
	size := 8 + 1
	switch p := d.Payload.(type) {
	case nil:
	case interface{ WireSize() int }:
		size += p.WireSize()
	default:
		// Subscription summaries are slices of 8-byte ids; reflectionless
		// estimate for the common case.
		if ids, ok := p.([]simnet.NodeID); ok {
			size += 2 + 8*len(ids)
		} else {
			size += 16
		}
	}
	return size
}

// WireSize implements simnet.Sized: a 2-byte count plus the descriptors.
func (m Request) WireSize() int {
	total := 2
	for _, d := range m.Buffer {
		total += descriptorWireSize(d)
	}
	return total
}

// WireSize implements simnet.Sized.
func (m Reply) WireSize() int {
	total := 2
	for _, d := range m.Buffer {
		total += descriptorWireSize(d)
	}
	return total
}
