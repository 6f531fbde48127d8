package transport

import (
	"bytes"
	"maps"
	"net/netip"
	"testing"

	"vitis/internal/simnet"
	"vitis/internal/wire"
)

// appendParsed is the inverse of parseEnvelope, used only to state the
// parser's round-trip property.
func appendParsed(dst []byte, e envelope) []byte {
	dst = append(dst, envMagic[0], envMagic[1], envVersion, e.flags, byte(len(e.src)/8))
	dst = append(dst, e.src...)
	dst = append(dst, byte(e.nHints))
	dst = append(dst, e.hints...)
	dst = append(dst, byte(e.nFrames>>8), byte(e.nFrames))
	return append(dst, e.frames...)
}

// FuzzEnvelope throws arbitrary bytes at the receive path, the first code
// to touch untrusted input. parseEnvelope never panics, every datagram it
// accepts re-serialises to exactly the input (nothing is skipped or read
// twice), and its frame section walks to its end. udpCore.receive then does
// bounded work per hostile datagram: the book grows by at most the
// datagram's source ids plus maxHints, no hint overwrites an address
// learned first-hand, an ack comes back only when one was requested, and
// RxErrors counts every malformed envelope, oversized hint section and
// undecodable frame. The seed corpus is what a real transport builds —
// hello, ack, one frame, several frames, a full hint section — plus the
// richest datagram cut at every section boundary.
func FuzzEnvelope(f *testing.F) {
	u := newVnode(1, 1, 2)
	var frames []byte
	for _, msg := range wire.Samples()[:3] {
		fr, err := wire.Encode(1, 7, msg)
		if err != nil {
			f.Fatal(err)
		}
		frames = append(frames, byte(len(fr)>>8), byte(len(fr)))
		frames = append(frames, fr...)
	}
	one := frames[:2+(int(frames[0])<<8|int(frames[1]))]
	build := func(flags byte, frames []byte, n int, q *peerQueue) []byte {
		return u.appendEnvelope(nil, flags, frames, n, q, 0)
	}
	f.Add(build(flagAckReq, nil, 0, nil)) // hello from an empty book
	for i := 0; i < 2*maxHints; i++ {
		addr := "127.0.0.1:9"
		if i%2 == 1 {
			addr = "[::1]:9"
		}
		u.learn(simnet.NodeID(100+i), netip.MustParseAddrPort(addr), 0)
	}
	f.Add(build(0, nil, 0, nil))                         // ack, hints padded to the maximum
	f.Add(build(0, one, 1, nil))                         // one frame, no hints
	f.Add(build(0, frames, 3, &peerQueue{padded: true})) // several frames
	rich := build(0, frames, 3, &peerQueue{mentioned: []simnet.NodeID{100, 101}})
	f.Add(rich)
	e, err := parseEnvelope(rich)
	if err != nil || e.nHints != maxHints || e.nFrames != 3 {
		f.Fatalf("seed datagram parsed to %d hints, %d frames, err %v", e.nHints, e.nFrames, err)
	}
	afterSrc := 5 + len(e.src)
	afterHints := afterSrc + 1 + len(e.hints)
	for _, cut := range []int{0, 3, 4, 5, afterSrc - 1, afterSrc, afterSrc + 1, afterSrc + 9, afterHints - 1, afterHints, afterHints + 1, afterHints + 2, afterHints + 3, len(rich) - 1} {
		f.Add(rich[:cut])
	}

	src := netip.MustParseAddrPort("10.0.0.1:7000")
	f.Fuzz(func(t *testing.T, data []byte) {
		e, perr := parseEnvelope(data)
		malformed := 0
		if perr != nil {
			e, malformed = envelope{}, 1
		} else if again := appendParsed(nil, e); !bytes.Equal(again, data) {
			t.Fatalf("parse then serialise changed the datagram\n in: %x\nout: %x", data, again)
		}
		if e.nHints > maxHints {
			malformed++
		}
		rest := e.frames
		for i := 0; i < e.nFrames; i++ {
			flen := int(rest[0])<<8 | int(rest[1])
			if _, _, _, err := wire.Decode(rest[2 : 2+flen]); err != nil {
				malformed++
			}
			rest = rest[2+flen:]
		}
		if len(rest) != 0 {
			t.Fatalf("%d bytes left after %d frames", len(rest), e.nFrames)
		}

		// The receiver learned ids 100 and 101 first-hand, at other
		// addresses than the hints in the seeds name.
		c := newVnode(2, 7)
		c.learn(100, netip.MustParseAddrPort("10.0.0.2:1"), 0)
		c.learn(101, netip.MustParseAddrPort("[fe80::1]:2"), 0)
		before := maps.Clone(c.book)
		in := c.receive(src, data, 1)
		in.dispatch(c.tel, nil)
		if got := c.tel.RxErrors.Value(); got != uint64(malformed) {
			t.Fatalf("RxErrors = %d for %d malformed parts", got, malformed)
		}
		if grown := len(c.book) - len(before); grown > len(e.src)/8+maxHints {
			t.Fatalf("book grew by %d entries from %d source ids", grown, len(e.src)/8)
		}
		named := make(map[simnet.NodeID]bool)
		for ids := e.src; len(ids) > 0; ids = ids[8:] {
			named[simnet.NodeID(takeU64(ids))] = true
		}
		for id, old := range before {
			if got := c.book[id].addr; !named[id] && got != old.addr {
				t.Fatalf("a hint moved %d from %v to %v", id, old.addr, got)
			}
		}
		if wantAck := perr == nil && e.flags&flagAckReq != 0; (in.ack != nil) != wantAck {
			t.Fatalf("ack %x for a datagram with flags %x", in.ack, e.flags)
		}
		if a, err := parseEnvelope(in.ack); in.ack != nil && (err != nil || a.nFrames != 0) {
			t.Fatalf("ack is not a frameless envelope: %v", err)
		}
	})
}

// TestParseEnvelopeRejectsTruncation checks no strict prefix of a valid
// datagram parses: every section is length-checked.
func TestParseEnvelopeRejectsTruncation(t *testing.T) {
	u := newVnode(1, 1)
	u.learn(5, netip.MustParseAddrPort("127.0.0.1:9"), 0)
	fr, err := wire.Encode(1, 7, wire.Samples()[0])
	if err != nil {
		t.Fatal(err)
	}
	fr = append([]byte{byte(len(fr) >> 8), byte(len(fr))}, fr...)
	dgram := u.appendEnvelope(nil, 0, fr, 1, &peerQueue{}, 0)
	if e, err := parseEnvelope(dgram); err != nil || e.nHints != 1 || e.nFrames != 1 {
		t.Fatalf("whole datagram: %d hints, %d frames, err %v", e.nHints, e.nFrames, err)
	}
	for cut := 0; cut < len(dgram); cut++ {
		if _, err := parseEnvelope(dgram[:cut]); err == nil {
			t.Fatalf("prefix of %d of %d bytes parsed", cut, len(dgram))
		}
	}
}
