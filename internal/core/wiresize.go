package core

// Wire sizes for bandwidth accounting (simnet.Sized). These are not
// estimates: internal/wire's codec produces exactly these byte counts, and
// a consistency test in that package keeps the two in lock-step, so the
// simulator's traffic-overhead figures match real encoded sizes. Ids are 8
// bytes; an EventID is 16; a Proposal entry is topic(8)+gw(8)+parent(8)+
// hops(4); list fields carry a 2-byte count, payloads a 4-byte length.

// WireSize implements simnet.Sized: flags(1), then the digest or the
// profile body.
func (m ProfileMsg) WireSize() int {
	switch {
	case m.Profile != nil:
		return 1 + 8 + 2 + 8*len(m.Profile.Subs) + 2 + 28*len(m.Profile.Proposals)
	case m.Digest != 0:
		return 1 + 8
	}
	return 1
}

// WireSize implements simnet.Sized.
func (m RelayMsg) WireSize() int { return 8 + 8 + 4 }

// WireSize implements simnet.Sized: topic(8) + event(16) + hops(4) +
// pubtime(8) + flags(1).
func (m Notification) WireSize() int { return 8 + 16 + 4 + 8 + 1 }

// WireSize implements simnet.Sized.
func (m PullReq) WireSize() int { return 16 }

// WireSize implements simnet.Sized.
func (m PullResp) WireSize() int { return 16 + 4 + len(m.Payload) }

// WireSize implements simnet.Sized.
func (m CatchUpReq) WireSize() int { return 8 + 8 }

// WireSize implements simnet.Sized: topic(8) + next(8) + more(1) +
// count(2), then per event publisher(8)+seq(8)+hops(4)+pubtime(8)+flags(1)+
// payload length(4)+payload — the same 33+len cost store.Record.WireCost
// reports, which is what keeps ReadRange's byte budget honest.
func (m CatchUpResp) WireSize() int {
	n := 8 + 8 + 1 + 2
	for _, e := range m.Events {
		n += 33 + len(e.Payload)
	}
	return n
}

// WireSize makes subscription summaries measurable inside T-Man buffers:
// a 2-byte count plus 8 bytes per topic id.
func (s SubsSummary) WireSize() int { return 2 + 8*len(s) }
