package wire

import (
	"bytes"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the frame decoder. The invariants:
// Decode never panics, and every frame it accepts is canonical — encoding
// the decoded message reproduces the input bytes exactly (encode∘decode is
// a fixed point). The seed corpus is one valid frame per registered
// message sample, so mutations explore the interesting parts of the format
// immediately.
func FuzzDecode(f *testing.F) {
	for _, msg := range Samples() {
		frame, err := Encode(11, 22, msg)
		if err != nil {
			f.Fatalf("seed Encode(%T): %v", msg, err)
		}
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte{'V', 'w', Version, TProfile})
	f.Add(unsubscribedProposalFrame())
	f.Add(digestAndBodyFrame())
	f.Add(zeroDigestFrame())

	f.Fuzz(func(t *testing.T, data []byte) {
		from, to, msg, err := Decode(data)
		if err != nil {
			return
		}
		again, err := Encode(from, to, msg)
		if err != nil {
			t.Fatalf("decoded %T from a valid frame but re-encode failed: %v", msg, err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("encode∘decode not a fixed point for %T\n in: %x\nout: %x", msg, data, again)
		}
	})
}
