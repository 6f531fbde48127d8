package core

import (
	"slices"

	"vitis/internal/ring"
	"vitis/internal/tman"
)

// EventID uniquely identifies a published event: the shared substrate's
// type, so the three systems' events are the same type.
type EventID = ring.EventID

// Proposal is one gateway proposal of Algorithm 5: the proposed gateway, the
// neighbor the proposal was adopted from ("parent"), and the hop distance to
// the gateway.
type Proposal struct {
	GW     NodeID
	Parent NodeID
	Hops   int
}

// TopicProposal is one entry of a profile's proposal list.
type TopicProposal struct {
	Topic    TopicID
	Proposal Proposal
}

// Profile is the periodically exchanged node profile: identity,
// subscription set and current gateway proposals (§III: "each node has a
// profile, which includes a unique node id, and the id of topics that the
// node subscribes to"; proposals piggyback on it per Algorithm 5).
//
// Profiles are immutable once built: the sender shares one snapshot across
// every heartbeat and reply until its state changes, receivers keep it as
// the sender's last known profile, and T-Man descriptors point into its
// subscription list (Summary).
type Profile struct {
	ID   NodeID
	Subs []TopicID // strictly ascending
	// Proposals is strictly ascending by topic, and every topic is in Subs:
	// a node proposes gateways only for its own subscriptions.
	Proposals []TopicProposal
}

// Subscribed reports whether the profile's owner subscribes to t.
func (p *Profile) Subscribed(t TopicID) bool {
	_, ok := slices.BinarySearch(p.Subs, t)
	return ok
}

// Equal reports whether two profiles carry the same content.
func (p *Profile) Equal(q *Profile) bool {
	if p == q {
		return true
	}
	return p != nil && q != nil && p.ID == q.ID &&
		slices.Equal(p.Subs, q.Subs) && slices.Equal(p.Proposals, q.Proposals)
}

// Summary is the T-Man descriptor payload for the profile's owner: a pointer
// into the profile's own subscription list, so storing it in a descriptor
// costs no allocation.
func (p *Profile) Summary() *SubsSummary { return (*SubsSummary)(&p.Subs) }

// Digest is the 64-bit FNV-1a hash of the profile's content — ID, Subs and
// Proposals, each list prefixed by its length — that a quiet heartbeat
// carries in place of the profile itself. It is never 0: the wire reserves
// 0 for "no digest".
func (p *Profile) Digest() uint64 {
	h := fnvMix(fnvOffset64, uint64(p.ID))
	h = fnvMix(h, uint64(len(p.Subs)))
	for _, t := range p.Subs {
		h = fnvMix(h, uint64(t))
	}
	h = fnvMix(h, uint64(len(p.Proposals)))
	for _, e := range p.Proposals {
		h = fnvMix(h, uint64(e.Topic))
		h = fnvMix(h, uint64(e.Proposal.GW))
		h = fnvMix(h, uint64(e.Proposal.Parent))
		h = fnvMix(h, uint64(e.Proposal.Hops))
	}
	if h == 0 {
		return 1
	}
	return h
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvMix folds the eight bytes of v, least significant first, into the
// FNV-1a state h.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// Wire messages of the Vitis protocol (beyond the sampling and T-Man
// layers).
type (
	// ProfileMsg is the heartbeat of Algorithms 6–7. Reply distinguishes
	// the reactive response so the exchange terminates. Under quiet
	// heartbeats (Params.Recovery) most messages carry no Profile: a
	// beacon carries the Digest of the sender's current profile instead,
	// and Want asks the receiver for its full profile (see handleProfile).
	ProfileMsg struct {
		Profile *Profile
		Digest  uint64 // 0 = none; never set together with Profile
		Reply   bool
		Want    bool
	}

	// RelayMsg constructs and refreshes a relay path: it is forwarded
	// greedily toward hash(Topic), leaving child/parent soft state at
	// every hop (§III-B).
	RelayMsg struct {
		Topic  TopicID
		Origin NodeID // gateway that initiated the lookup
		TTL    int
	}

	// Notification announces a published event (§III-C). Hops counts the
	// overlay hops travelled so far; the harness uses it as the
	// propagation-delay metric. PubTime is the publisher's millisecond
	// clock at publish time (Hooks.Now), carried end to end so receivers
	// can measure publish-to-deliver latency. HasData marks events whose
	// payload must be pulled from the notification sender.
	Notification struct {
		Topic   TopicID
		Event   EventID
		Hops    int
		PubTime int64
		HasData bool
	}
)

// SubsSummary is the subscription list used by Algorithm 4's utility
// ranking. T-Man descriptors carry it as a *SubsSummary — a pointer fits an
// interface without boxing — that points into an immutable profile or a
// decoded buffer and is never written through. It is exported so the wire
// codec (internal/wire) can reconstruct descriptor payloads when messages
// arrive over a real transport.
type SubsSummary []TopicID

// payloadSubs extracts the subscription list a descriptor carries.
func payloadSubs(d tman.Descriptor) ([]TopicID, bool) {
	if s, ok := d.Payload.(*SubsSummary); ok && s != nil {
		return *s, true
	}
	return nil, false
}
