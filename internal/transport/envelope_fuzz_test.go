package transport

import (
	"bytes"
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

// FuzzEnvelope throws arbitrary bytes at the datagram parser, the first
// code to touch untrusted input. The invariants: parseEnvelope never
// panics, every datagram it accepts re-serialises to exactly the input
// (nothing is skipped or read twice), and the frame section walks to its
// end the way handleDatagram walks it. The seed corpus is what a real
// transport builds — hello, ack, one frame, several frames, a full hint
// section — plus the richest datagram cut at every section boundary.
func FuzzEnvelope(f *testing.F) {
	u, err := ListenUDP("127.0.0.1:0", UDPConfig{})
	if err != nil {
		f.Fatal(err)
	}
	defer u.Close()
	u.Attach(1)
	u.Attach(2)
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
	build := func(flags byte, frames []byte, n int, h *hintLedger) []byte {
		u.mu.Lock()
		defer u.mu.Unlock()
		return u.appendEnvelopeLocked(nil, flags, frames, n, h)
	}
	f.Add(build(flagAckReq, nil, 0, nil)) // hello from an empty book
	for i := 0; i < 2*maxHints; i++ {
		addr := "127.0.0.1:9"
		if i%2 == 1 {
			addr = "[::1]:9"
		}
		if err := u.SetPeer(simnet.NodeID(100+i), addr); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(build(0, nil, 0, nil))                          // ack, hints padded to the maximum
	f.Add(build(0, one, 1, nil))                          // one frame, no hints
	f.Add(build(0, frames, 3, &hintLedger{padded: true})) // several frames
	rich := build(0, frames, 3, &hintLedger{mentioned: []simnet.NodeID{100, 101}})
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

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := parseEnvelope(data)
		if err != nil {
			return
		}
		if again := appendParsed(nil, e); !bytes.Equal(again, data) {
			t.Fatalf("parse then serialise changed the datagram\n in: %x\nout: %x", data, again)
		}
		rest := e.frames
		for i := 0; i < e.nFrames; i++ {
			rest = rest[2+(int(rest[0])<<8|int(rest[1])):]
		}
		if len(rest) != 0 {
			t.Fatalf("%d bytes left after %d frames", len(rest), e.nFrames)
		}
	})
}

// TestParseEnvelopeRejectsTruncation checks no strict prefix of a valid
// datagram parses: every section is length-checked.
func TestParseEnvelopeRejectsTruncation(t *testing.T) {
	u := listenTestUDP(t)
	u.Attach(1)
	if err := u.SetPeer(5, "127.0.0.1:9"); err != nil {
		t.Fatal(err)
	}
	fr, err := wire.Encode(1, 7, wire.Samples()[0])
	if err != nil {
		t.Fatal(err)
	}
	fr = append([]byte{byte(len(fr) >> 8), byte(len(fr))}, fr...)
	u.mu.Lock()
	dgram := u.appendEnvelopeLocked(nil, 0, fr, 1, &hintLedger{})
	u.mu.Unlock()
	if e, err := parseEnvelope(dgram); err != nil || e.nHints != 1 || e.nFrames != 1 {
		t.Fatalf("whole datagram: %d hints, %d frames, err %v", e.nHints, e.nFrames, err)
	}
	for cut := 0; cut < len(dgram); cut++ {
		if _, err := parseEnvelope(dgram[:cut]); err == nil {
			t.Fatalf("prefix of %d of %d bytes parsed", cut, len(dgram))
		}
	}
}
