package wire

import (
	"fmt"

	"vitis/internal/bootstrap"
	"vitis/internal/core"
	"vitis/internal/idspace"
	"vitis/internal/sampling"
	"vitis/internal/simnet"
	"vitis/internal/tman"
)

// Per-message body codecs. Every encoder writes exactly the byte count the
// message's WireSize() reports (the consistency test enforces this), and
// every decoder is the strict inverse: it accepts only what the encoder
// emits.

// encodeBody appends msg's body to w and returns its registry type byte.
func encodeBody(w *writer, msg simnet.Message) (byte, error) {
	switch m := msg.(type) {
	case sampling.Request:
		return TSamplingRequest, encodeSamplingView(w, m.View)
	case sampling.Reply:
		return TSamplingReply, encodeSamplingView(w, m.View)
	case tman.Request:
		return TTManRequest, encodeTManBuffer(w, m.Buffer)
	case tman.Reply:
		return TTManReply, encodeTManBuffer(w, m.Buffer)
	case bootstrap.JoinReq:
		w.u32(uint32(int32(m.Want)))
		return TJoinReq, nil
	case bootstrap.JoinResp:
		if len(m.Peers) > maxCount {
			return TJoinResp, fmt.Errorf("%w: %d peers", ErrTooLarge, len(m.Peers))
		}
		w.u16(uint16(len(m.Peers)))
		for _, id := range m.Peers {
			w.u64(uint64(id))
		}
		return TJoinResp, nil
	case bootstrap.Announce:
		w.u8(0)
		return TAnnounce, nil
	case core.ProfileMsg:
		return TProfile, encodeProfile(w, m)
	case core.RelayMsg:
		w.u64(uint64(m.Topic))
		w.u64(uint64(m.Origin))
		w.u32(uint32(int32(m.TTL)))
		return TRelay, nil
	case core.Notification:
		w.u64(uint64(m.Topic))
		w.u64(uint64(m.Event.Publisher))
		w.u64(m.Event.Seq)
		w.u32(uint32(int32(m.Hops)))
		w.u64(uint64(m.PubTime))
		if m.HasData {
			w.u8(1)
		} else {
			w.u8(0)
		}
		return TNotification, nil
	case core.PullReq:
		w.u64(uint64(m.Event.Publisher))
		w.u64(m.Event.Seq)
		return TPullReq, nil
	case core.PullResp:
		w.u64(uint64(m.Event.Publisher))
		w.u64(m.Event.Seq)
		w.u32(uint32(len(m.Payload)))
		w.bytes(m.Payload)
		return TPullResp, nil
	case core.ReplayReq:
		if len(m.Topics) > maxCount {
			return TReplayReq, fmt.Errorf("%w: %d topics", ErrTooLarge, len(m.Topics))
		}
		w.u16(uint16(len(m.Topics)))
		for _, t := range m.Topics {
			w.u64(uint64(t))
		}
		return TReplayReq, nil
	case core.CatchUpReq:
		w.u64(uint64(m.Topic))
		w.u64(m.After)
		return TCatchUpReq, nil
	case core.CatchUpResp:
		if len(m.Events) > maxCount {
			return TCatchUpResp, fmt.Errorf("%w: %d events", ErrTooLarge, len(m.Events))
		}
		w.u64(uint64(m.Topic))
		w.u64(m.Next)
		if m.More {
			w.u8(1)
		} else {
			w.u8(0)
		}
		w.u16(uint16(len(m.Events)))
		for _, e := range m.Events {
			w.u64(uint64(e.Event.Publisher))
			w.u64(e.Event.Seq)
			w.u32(uint32(int32(e.Hops)))
			w.u64(uint64(e.Time))
			if e.HasData {
				w.u8(1)
			} else {
				w.u8(0)
			}
			w.u32(uint32(len(e.Payload)))
			w.bytes(e.Payload)
		}
		return TCatchUpResp, nil
	default:
		return 0, fmt.Errorf("%w: %T", ErrUnkeyable, msg)
	}
}

// decodeBody parses a body of the given registry type.
func decodeBody(typ byte, r *reader) (simnet.Message, error) {
	switch typ {
	case TSamplingRequest:
		return sampling.Request{View: decodeSamplingView(r)}, r.err
	case TSamplingReply:
		return sampling.Reply{View: decodeSamplingView(r)}, r.err
	case TTManRequest:
		return tman.Request{Buffer: decodeTManBuffer(r)}, r.err
	case TTManReply:
		return tman.Reply{Buffer: decodeTManBuffer(r)}, r.err
	case TJoinReq:
		return bootstrap.JoinReq{Want: int(int32(r.u32()))}, r.err
	case TJoinResp:
		n := r.count(8)
		var peers []simnet.NodeID
		if n > 0 {
			peers = make([]simnet.NodeID, n)
			for i := range peers {
				peers[i] = simnet.NodeID(r.u64())
			}
		}
		return bootstrap.JoinResp{Peers: peers}, r.err
	case TAnnounce:
		if r.u8() != 0 && r.err == nil {
			r.fail(ErrCanonical)
		}
		return bootstrap.Announce{}, r.err
	case TProfile:
		return decodeProfile(r)
	case TRelay:
		return core.RelayMsg{
			Topic:  core.TopicID(r.u64()),
			Origin: simnet.NodeID(r.u64()),
			TTL:    int(int32(r.u32())),
		}, r.err
	case TNotification:
		m := core.Notification{
			Topic:   core.TopicID(r.u64()),
			Event:   core.EventID{Publisher: simnet.NodeID(r.u64()), Seq: r.u64()},
			Hops:    int(int32(r.u32())),
			PubTime: int64(r.u64()),
		}
		switch r.u8() {
		case 0:
		case 1:
			m.HasData = true
		default:
			r.fail(ErrCanonical)
		}
		return m, r.err
	case TPullReq:
		return core.PullReq{
			Event: core.EventID{Publisher: simnet.NodeID(r.u64()), Seq: r.u64()},
		}, r.err
	case TPullResp:
		m := core.PullResp{
			Event: core.EventID{Publisher: simnet.NodeID(r.u64()), Seq: r.u64()},
		}
		n := int(r.u32())
		if r.err == nil && n != r.remaining() {
			// The payload is the last field; anything else is either
			// truncated or carries trailing garbage.
			r.fail(ErrFrameLength)
		}
		if b := r.take(n); b != nil && n > 0 {
			m.Payload = append([]byte(nil), b...)
		}
		return m, r.err
	case TReplayReq:
		return core.ReplayReq{Topics: decodeTopicList(r)}, r.err
	case TCatchUpReq:
		return core.CatchUpReq{
			Topic: core.TopicID(r.u64()),
			After: r.u64(),
		}, r.err
	case TCatchUpResp:
		m := core.CatchUpResp{
			Topic: core.TopicID(r.u64()),
			Next:  r.u64(),
		}
		switch r.u8() {
		case 0:
		case 1:
			m.More = true
		default:
			r.fail(ErrCanonical)
		}
		n := r.count(33)
		if n == 0 {
			return m, r.err
		}
		m.Events = make([]core.CatchUpEvent, 0, n)
		for i := 0; i < n; i++ {
			e := core.CatchUpEvent{
				Event: core.EventID{Publisher: simnet.NodeID(r.u64()), Seq: r.u64()},
				Hops:  int(int32(r.u32())),
				Time:  int64(r.u64()),
			}
			switch r.u8() {
			case 0:
			case 1:
				e.HasData = true
			default:
				r.fail(ErrCanonical)
			}
			plen := int(r.u32())
			if r.err == nil && plen > r.remaining() {
				r.fail(ErrTruncated)
			}
			if b := r.take(plen); b != nil && plen > 0 {
				e.Payload = append([]byte(nil), b...)
			}
			if r.err != nil {
				return m, r.err
			}
			m.Events = append(m.Events, e)
		}
		return m, r.err
	default:
		return nil, ErrUnknownType
	}
}

// maxCount is the largest element count a u16-prefixed list can carry.
const maxCount = 1<<16 - 1

// --- sampling descriptors: (id u64, age i32) lists ---

func encodeSamplingView(w *writer, view []sampling.Descriptor) error {
	if len(view) > maxCount {
		return fmt.Errorf("%w: %d descriptors", ErrTooLarge, len(view))
	}
	w.u16(uint16(len(view)))
	for _, d := range view {
		w.u64(uint64(d.ID))
		w.u32(uint32(int32(d.Age)))
	}
	return nil
}

func decodeSamplingView(r *reader) []sampling.Descriptor {
	n := r.count(12)
	if n == 0 {
		return nil
	}
	view := make([]sampling.Descriptor, n)
	for i := range view {
		view[i] = sampling.Descriptor{
			ID:  simnet.NodeID(r.u64()),
			Age: int(int32(r.u32())),
		}
	}
	return view
}

// --- T-Man descriptors: id plus an optional typed payload ---

// Descriptor payload kinds on the wire.
const (
	payloadNone byte = 0 // Payload == nil
	payloadSubs byte = 1 // *core.SubsSummary
)

func encodeTManBuffer(w *writer, buf []tman.Descriptor) error {
	if len(buf) > maxCount {
		return fmt.Errorf("%w: %d descriptors", ErrTooLarge, len(buf))
	}
	w.u16(uint16(len(buf)))
	for _, d := range buf {
		w.u64(uint64(d.ID))
		switch p := d.Payload.(type) {
		case nil:
			w.u8(payloadNone)
		case *core.SubsSummary:
			w.u8(payloadSubs)
			if len(*p) > maxCount {
				return fmt.Errorf("%w: %d topics", ErrTooLarge, len(*p))
			}
			w.u16(uint16(len(*p)))
			for _, t := range *p {
				w.u64(uint64(t))
			}
		default:
			// Simulation-only payloads (e.g. the OPT baseline's) have no
			// wire representation; refusing them here keeps the registry
			// honest instead of silently dropping data.
			return fmt.Errorf("%w: descriptor payload %T", ErrUnkeyable, d.Payload)
		}
	}
	return nil
}

// decodeTManBuffer makes three allocations whatever the number of
// descriptors: the descriptors, the list headers their payloads point to,
// and one backing array for every subscription list of the buffer, sized by
// a dry walk over the body first.
func decodeTManBuffer(r *reader) []tman.Descriptor {
	n := r.count(9)
	if n == 0 {
		return nil
	}
	lists, topics := 0, 0
	scan := *r
	for i := 0; i < n && scan.err == nil; i++ {
		scan.take(8)
		if scan.u8() == payloadSubs {
			k := int(scan.u16())
			if scan.take(8*k) != nil {
				lists++
				topics += k
			}
		}
	}
	// The walk counted only complete lists, and decoding stops at the
	// first one that is not, so neither array can overflow.
	sums := make([]core.SubsSummary, lists)
	backing := make([]core.TopicID, topics)
	buf := make([]tman.Descriptor, n)
	for i := range buf {
		buf[i].ID = simnet.NodeID(r.u64())
		switch r.u8() {
		case payloadNone:
		case payloadSubs:
			list, rest := decodeTopicListInto(r, backing)
			if r.err != nil {
				return nil
			}
			backing = rest
			sums[0] = list
			buf[i].Payload = &sums[0]
			sums = sums[1:]
		default:
			r.fail(ErrCanonical)
			return nil
		}
		if r.err != nil {
			return nil
		}
	}
	return buf
}

// decodeTopicList reads a strictly ascending topic-id list; subscription
// lists are sorted everywhere in the protocols, so unsorted or duplicated
// entries mark a non-canonical (or corrupted) frame.
func decodeTopicList(r *reader) []core.TopicID {
	list, _ := decodeTopicListInto(r, nil)
	return list
}

// decodeTopicListInto is decodeTopicList reading into the front of backing
// (a fresh array when backing is too short); it returns the list and the
// unused rest of backing.
func decodeTopicListInto(r *reader, backing []core.TopicID) (list, rest []core.TopicID) {
	n := r.count(8)
	if n == 0 {
		return nil, backing
	}
	if len(backing) < n {
		backing = make([]core.TopicID, n)
	}
	list, rest = backing[:n:n], backing[n:]
	for i := range list {
		list[i] = core.TopicID(r.u64())
		if r.err == nil && i > 0 && list[i] <= list[i-1] {
			r.fail(ErrCanonical)
			return nil, rest
		}
	}
	return list, rest
}

// --- core.ProfileMsg ---

// Profile flag bits. A body and a digest exclude each other; a digest is
// never 0. Bits 2 and 3 came with quiet heartbeats: a decoder that predates
// them rejects such frames as non-canonical instead of misreading them.
const (
	profileHasBody   byte = 1 << 0
	profileReply     byte = 1 << 1
	profileHasDigest byte = 1 << 2 // followed by the u64 digest
	profileWant      byte = 1 << 3
)

func encodeProfile(w *writer, m core.ProfileMsg) error {
	var flags byte
	if m.Profile != nil {
		flags |= profileHasBody
	}
	if m.Reply {
		flags |= profileReply
	}
	if m.Digest != 0 {
		if m.Profile != nil {
			return fmt.Errorf("%w: profile with both a body and a digest", ErrCanonical)
		}
		flags |= profileHasDigest
	}
	if m.Want {
		flags |= profileWant
	}
	w.u8(flags)
	if m.Digest != 0 {
		w.u64(m.Digest)
	}
	if m.Profile == nil {
		return nil
	}
	p := m.Profile
	if len(p.Subs) > maxCount || len(p.Proposals) > maxCount {
		return fmt.Errorf("%w: profile with %d subs, %d proposals", ErrTooLarge, len(p.Subs), len(p.Proposals))
	}
	w.u64(uint64(p.ID))
	w.u16(uint16(len(p.Subs)))
	for _, t := range p.Subs {
		w.u64(uint64(t))
	}
	// Profiles keep their proposals sorted by topic, so they go out as
	// they are; the decoder demands that order.
	w.u16(uint16(len(p.Proposals)))
	for _, e := range p.Proposals {
		w.u64(uint64(e.Topic))
		w.u64(uint64(e.Proposal.GW))
		w.u64(uint64(e.Proposal.Parent))
		w.u32(uint32(int32(e.Proposal.Hops)))
	}
	return nil
}

// decodeProfile accepts a proposal list only if its topics ascend strictly
// and are a subset of the profile's own subscriptions (a node proposes
// gateways only for topics it subscribes to), so what a heartbeat can make
// a receiver store is bounded by the sender's subscription list.
func decodeProfile(r *reader) (simnet.Message, error) {
	flags := r.u8()
	if r.err == nil && (flags&^(profileHasBody|profileReply|profileHasDigest|profileWant) != 0 ||
		flags&(profileHasBody|profileHasDigest) == profileHasBody|profileHasDigest) {
		r.fail(ErrCanonical)
	}
	m := core.ProfileMsg{Reply: flags&profileReply != 0, Want: flags&profileWant != 0}
	if flags&profileHasDigest != 0 {
		if m.Digest = r.u64(); m.Digest == 0 {
			r.fail(ErrCanonical)
		}
	}
	if r.err != nil || flags&profileHasBody == 0 {
		return m, r.err
	}
	p := &core.Profile{ID: idspace.ID(r.u64())}
	p.Subs = decodeTopicList(r)
	np := r.count(28)
	if np > 0 {
		p.Proposals = make([]core.TopicProposal, np)
		subs := p.Subs // unmatched tail: topics ascend in both lists
		for i := range p.Proposals {
			e := &p.Proposals[i]
			e.Topic = core.TopicID(r.u64())
			for len(subs) > 0 && subs[0] < e.Topic {
				subs = subs[1:]
			}
			if r.err == nil && (len(subs) == 0 || subs[0] != e.Topic) {
				// Out of order, duplicated, or not subscribed.
				r.fail(ErrCanonical)
				break
			}
			subs = subs[1:]
			e.Proposal = core.Proposal{
				GW:     simnet.NodeID(r.u64()),
				Parent: simnet.NodeID(r.u64()),
				Hops:   int(int32(r.u32())),
			}
		}
	}
	m.Profile = p
	return m, r.err
}

// Samples returns representative instances of every registered message
// type, both empty and populated. Tests iterate it to prove codec/WireSize
// consistency and round-trip fidelity, and the fuzz harness seeds its
// corpus from it — registering a new message type without extending this
// list fails the coverage test.
func Samples() []simnet.Message {
	view := []sampling.Descriptor{{ID: 3, Age: 0}, {ID: 9, Age: 4}}
	subs := core.SubsSummary{10, 20, 30}
	buf := []tman.Descriptor{{ID: 5}, {ID: 7, Payload: &subs}}
	profile := &core.Profile{
		ID:   42,
		Subs: []core.TopicID{10, 20},
		Proposals: []core.TopicProposal{
			{Topic: 10, Proposal: core.Proposal{GW: 42, Parent: 42, Hops: 0}},
			{Topic: 20, Proposal: core.Proposal{GW: 7, Parent: 5, Hops: 2}},
		},
	}
	return []simnet.Message{
		sampling.Request{},
		sampling.Request{View: view},
		sampling.Reply{View: view},
		tman.Request{},
		tman.Request{Buffer: buf},
		tman.Reply{Buffer: buf},
		bootstrap.JoinReq{Want: 5},
		bootstrap.JoinResp{},
		bootstrap.JoinResp{Peers: []simnet.NodeID{1, 2, 3}},
		bootstrap.Announce{},
		core.ProfileMsg{},
		core.ProfileMsg{Reply: true},
		core.ProfileMsg{Profile: profile},
		core.RelayMsg{Topic: 10, Origin: 42, TTL: 16},
		core.Notification{Topic: 10, Event: core.EventID{Publisher: 42, Seq: 7}, Hops: 3, PubTime: 123456, HasData: true},
		core.PullReq{Event: core.EventID{Publisher: 42, Seq: 7}},
		core.PullResp{Event: core.EventID{Publisher: 42, Seq: 7}},
		core.PullResp{Event: core.EventID{Publisher: 42, Seq: 7}, Payload: []byte("payload bytes")},
		core.ReplayReq{},
		core.ReplayReq{Topics: []core.TopicID{10, 20, 30}},
		core.CatchUpReq{Topic: 10, After: 7},
		core.CatchUpResp{Topic: 10, Next: 7},
		core.CatchUpResp{Topic: 10, Next: 9, More: true, Events: []core.CatchUpEvent{
			{Event: core.EventID{Publisher: 42, Seq: 7}, Hops: 2},
			{Event: core.EventID{Publisher: 42, Seq: 8}, Hops: 5, Time: 5000, HasData: true},
			{Event: core.EventID{Publisher: 43, Seq: 1}, Hops: 1, Time: 777777, HasData: true, Payload: []byte("caught-up payload")},
		}},
		core.ProfileMsg{Digest: profile.Digest()},
		core.ProfileMsg{Digest: profile.Digest(), Reply: true},
		core.ProfileMsg{Want: true},
	}
}
