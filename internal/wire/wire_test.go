package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"strings"
	"testing"

	"vitis/internal/bootstrap"
	"vitis/internal/core"
	"vitis/internal/sampling"
	"vitis/internal/simnet"
	"vitis/internal/tman"
)

func TestHeaderMatchesSimnet(t *testing.T) {
	if HeaderSize != simnet.HeaderBytes {
		t.Fatalf("HeaderSize = %d, simnet.HeaderBytes = %d", HeaderSize, simnet.HeaderBytes)
	}
}

// TestEncodeMatchesWireSize is the codec/WireSize consistency contract: for
// every registered message type, the encoded frame length equals what the
// simulator charges via WireSizeOf, so the traffic-overhead figures
// (Fig. 5/6) cannot drift from real encoded sizes.
func TestEncodeMatchesWireSize(t *testing.T) {
	for _, msg := range Samples() {
		frame, err := Encode(1, 2, msg)
		if err != nil {
			t.Errorf("Encode(%T) failed: %v", msg, err)
			continue
		}
		if got, want := len(frame), simnet.WireSizeOf(msg); got != want {
			t.Errorf("%T: encoded %d bytes, WireSizeOf says %d", msg, got, want)
		}
	}
}

// TestSamplesCoverRegistry keeps Samples() honest: every registered type
// byte must appear, so new registrations are forced into the test corpus.
func TestSamplesCoverRegistry(t *testing.T) {
	seen := make(map[byte]bool)
	for _, msg := range Samples() {
		w := &writer{b: make([]byte, HeaderSize)}
		typ, err := encodeBody(w, msg)
		if err != nil {
			t.Fatalf("encodeBody(%T): %v", msg, err)
		}
		seen[typ] = true
	}
	for _, typ := range Types() {
		if !seen[typ] {
			t.Errorf("no sample covers %s", TypeName(typ))
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, msg := range Samples() {
		frame, err := Encode(7, 9, msg)
		if err != nil {
			t.Fatalf("Encode(%T): %v", msg, err)
		}
		from, to, decoded, err := Decode(frame)
		if err != nil {
			t.Fatalf("Decode(%T): %v", msg, err)
		}
		if from != 7 || to != 9 {
			t.Errorf("%T: addresses (%d,%d), want (7,9)", msg, from, to)
		}
		if fmt.Sprintf("%T", decoded) != fmt.Sprintf("%T", msg) {
			t.Fatalf("decoded %T, want %T", decoded, msg)
		}
		// encode∘decode must be the identity on frames (the canonical-form
		// contract the fuzzer also checks).
		again, err := Encode(from, to, decoded)
		if err != nil {
			t.Fatalf("re-Encode(%T): %v", msg, err)
		}
		if !bytes.Equal(frame, again) {
			t.Errorf("%T: encode∘decode not a fixed point\n first: %x\nsecond: %x", msg, frame, again)
		}
	}
}

func TestDecodePreservesContent(t *testing.T) {
	prof := &core.Profile{
		ID:   3,
		Subs: []core.TopicID{5, 9},
		Proposals: []core.TopicProposal{
			{Topic: 5, Proposal: core.Proposal{GW: 11, Parent: 3, Hops: 1}},
		},
	}
	frame, err := Encode(3, 4, core.ProfileMsg{Profile: prof, Reply: true})
	if err != nil {
		t.Fatal(err)
	}
	_, _, msg, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	got := msg.(core.ProfileMsg)
	if !got.Reply || got.Profile == nil {
		t.Fatalf("decoded %+v", got)
	}
	if got.Profile.ID != 3 || len(got.Profile.Subs) != 2 || got.Profile.Subs[1] != 9 {
		t.Errorf("profile fields lost: %+v", got.Profile)
	}
	if !slices.Equal(got.Profile.Proposals, prof.Proposals) {
		t.Errorf("proposals lost: %+v", got.Profile.Proposals)
	}

	frame, err = Encode(1, 2, core.PullResp{
		Event:   core.EventID{Publisher: 8, Seq: 2},
		Payload: []byte{0xde, 0xad},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, msg, err = Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if pr := msg.(core.PullResp); !bytes.Equal(pr.Payload, []byte{0xde, 0xad}) {
		t.Errorf("payload lost: %x", pr.Payload)
	}

	frame, err = Encode(1, 2, tman.Request{Buffer: []tman.Descriptor{
		{ID: 4, Payload: &core.SubsSummary{7, 8}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, _, msg, err = Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	buf := msg.(tman.Request).Buffer
	if len(buf) != 1 || buf[0].ID != 4 {
		t.Fatalf("buffer lost: %+v", buf)
	}
	if subs, ok := buf[0].Payload.(*core.SubsSummary); !ok || len(*subs) != 2 || (*subs)[1] != 8 {
		t.Errorf("payload type lost: %#v", buf[0].Payload)
	}
}

func TestEncodeRejectsSimOnlyPayload(t *testing.T) {
	_, err := Encode(1, 2, tman.Request{Buffer: []tman.Descriptor{{ID: 1, Payload: "opaque"}}})
	if !errors.Is(err, ErrUnkeyable) {
		t.Errorf("err = %v, want ErrUnkeyable", err)
	}
	_, err = Encode(1, 2, "not a protocol message")
	if !errors.Is(err, ErrUnkeyable) {
		t.Errorf("err = %v, want ErrUnkeyable", err)
	}
}

func TestEncodeRejectsOversize(t *testing.T) {
	_, err := Encode(1, 2, core.PullResp{Payload: make([]byte, MaxBody+1)})
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	good, err := Encode(1, 2, core.Notification{Topic: 3, Event: core.EventID{Publisher: 1}})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"short", good[:10], ErrShortFrame},
		{"magic", mutate(func(b []byte) { b[0] = 'X' }), ErrBadMagic},
		{"version", mutate(func(b []byte) { b[2] = 99 }), ErrBadVersion},
		{"length", mutate(func(b []byte) { binary.BigEndian.PutUint32(b[20:24], 5) }), ErrFrameLength},
		{"checksum", mutate(func(b []byte) { b[HeaderSize] ^= 0xff }), ErrChecksum},
		{"truncated-with-length", nil, nil}, // handled below
	}
	for _, tc := range cases[:5] {
		if _, _, _, err := Decode(tc.frame); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	// Unknown type bytes, including the reserved 3 and 4.
	for _, typ := range []byte{3, 4, 200} {
		bad := append([]byte(nil), good...)
		bad[3] = typ
		if _, _, _, err := Decode(bad); !errors.Is(err, ErrUnknownType) {
			t.Errorf("type %d: err = %v, want ErrUnknownType", typ, err)
		}
	}

	// Non-canonical: unsorted proposal topics would re-encode differently,
	// so the decoder must refuse them.
	prof := &core.Profile{ID: 1, Subs: []core.TopicID{2, 9}, Proposals: []core.TopicProposal{
		{Topic: 2, Proposal: core.Proposal{GW: 1, Parent: 1}},
		{Topic: 9, Proposal: core.Proposal{GW: 1, Parent: 1}},
	}}
	frame, err := Encode(1, 2, core.ProfileMsg{Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	// The two proposal entries start after flags(1)+id(8)+nsubs(2)+
	// subs(16)+nprops(2); swap them to break the ascending order.
	body := frame[HeaderSize:]
	entry := body[29:]
	swapped := append([]byte(nil), entry[28:56]...)
	copy(entry[28:56], entry[:28])
	copy(entry[:28], swapped)
	rechecksum(frame)
	if _, _, _, err := Decode(frame); !errors.Is(err, ErrCanonical) {
		t.Errorf("unsorted proposals: err = %v, want ErrCanonical", err)
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	frame, err := Encode(1, 2, bootstrap.JoinReq{Want: 3})
	if err != nil {
		t.Fatal(err)
	}
	frame = append(frame, 0x00)
	binary.BigEndian.PutUint32(frame[20:24], uint32(len(frame)-HeaderSize))
	rechecksum(frame)
	if _, _, _, err := Decode(frame); !errors.Is(err, ErrTrailing) {
		t.Errorf("err = %v, want ErrTrailing", err)
	}
}

// TestDecodeBoundsAllocations feeds a frame whose element count promises
// far more data than the body holds; the decoder must fail cleanly instead
// of allocating or panicking.
func TestDecodeBoundsAllocations(t *testing.T) {
	frame, err := Encode(1, 2, sampling.Request{})
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint16(frame[HeaderSize:], 0xffff)
	rechecksum(frame)
	if _, _, _, err := Decode(frame); !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

// rechecksum fixes up the CRC after a test mutated the body.
func rechecksum(frame []byte) {
	binary.BigEndian.PutUint32(frame[24:28], crc32.ChecksumIEEE(frame[HeaderSize:]))
}

// TestAppendEncodeMatchesEncode proves the appending encoder is
// byte-identical to Encode for every registered type, appends after existing
// content without disturbing it, and leaves dst unchanged on error.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	for _, msg := range Samples() {
		want, err := Encode(7, 9, msg)
		if err != nil {
			t.Fatalf("Encode(%T): %v", msg, err)
		}
		prefix := []byte{0xaa, 0xbb, 0xcc}
		got, err := AppendEncode(append([]byte(nil), prefix...), 7, 9, msg)
		if err != nil {
			t.Fatalf("AppendEncode(%T): %v", msg, err)
		}
		if !bytes.Equal(got[:3], prefix) {
			t.Fatalf("%T: prefix clobbered: %x", msg, got[:3])
		}
		if !bytes.Equal(got[3:], want) {
			t.Errorf("%T: AppendEncode differs from Encode\n got: %x\nwant: %x", msg, got[3:], want)
		}
	}

	dst := []byte{1, 2, 3}
	out, err := AppendEncode(dst, 1, 2, "not a protocol message")
	if !errors.Is(err, ErrUnkeyable) {
		t.Fatalf("err = %v, want ErrUnkeyable", err)
	}
	if !bytes.Equal(out, dst) {
		t.Errorf("dst changed on error: %x", out)
	}
}

// TestAppendEncodeZeroAlloc pins the allocation contract the batched UDP
// send path depends on: encoding a data-plane frame into a buffer with spare
// capacity must not allocate.
func TestAppendEncodeZeroAlloc(t *testing.T) {
	// Boxed once: the transport hands AppendEncode an already-boxed
	// simnet.Message, so the interface conversion is not on the path.
	var msg simnet.Message = core.Notification{Topic: 10, Event: core.EventID{Publisher: 42, Seq: 7}, Hops: 3}
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(1000, func() {
		var err error
		buf, err = AppendEncode(buf[:0], 7, 9, msg)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendEncode allocates %.1f times per frame, want 0", allocs)
	}
}

// BenchmarkEncode is the seed (allocating) encode path, kept for
// before/after comparison with BenchmarkAppendEncode.
func BenchmarkEncode(b *testing.B) {
	var msg simnet.Message = core.Notification{Topic: 10, Event: core.EventID{Publisher: 42, Seq: 7}, Hops: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(7, 9, msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendEncode is the batched send path's encode: append into a
// reused buffer, zero allocations.
func BenchmarkAppendEncode(b *testing.B) {
	var msg simnet.Message = core.Notification{Topic: 10, Event: core.EventID{Publisher: 42, Seq: 7}, Hops: 3}
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendEncode(buf[:0], 7, 9, msg)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestSamplesMatchGolden pins the wire format itself: every sample encodes
// to exactly the bytes recorded in testdata/samples.golden (one
// "<type> <hex frame>" line per sample, from 7 to 9). A change to how the
// Go values are represented must not move a single byte.
func TestSamplesMatchGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/samples.golden")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	samples := Samples()
	if len(lines) != len(samples) {
		t.Fatalf("golden has %d frames, Samples() %d", len(lines), len(samples))
	}
	for i, msg := range samples {
		name, want, _ := strings.Cut(lines[i], " ")
		frame, err := Encode(7, 9, msg)
		if err != nil {
			t.Fatalf("Encode(%T): %v", msg, err)
		}
		if got := TypeName(frame[3]); got != name {
			t.Errorf("sample %d: type %s, golden says %s", i, got, name)
		}
		if got := hex.EncodeToString(frame); got != want {
			t.Errorf("sample %d (%s) moved on the wire\n got: %s\nwant: %s", i, name, got, want)
		}
	}
}

// TestDecodeRejectsUnsubscribedProposal: a proposal for a topic outside
// the profile's own subscriptions is non-canonical, which bounds what one
// heartbeat can make a receiver store.
func TestDecodeRejectsUnsubscribedProposal(t *testing.T) {
	if _, _, _, err := Decode(unsubscribedProposalFrame()); !errors.Is(err, ErrCanonical) {
		t.Errorf("err = %v, want ErrCanonical", err)
	}
}

// unsubscribedProposalFrame is a profile subscribed to topic 10 that
// proposes a gateway for topic 20. The frame is built by hand: no profile
// the node can build encodes to it.
func unsubscribedProposalFrame() []byte {
	body := []byte{profileHasBody}
	body = binary.BigEndian.AppendUint64(body, 42) // id
	body = binary.BigEndian.AppendUint16(body, 1)  // one subscription
	body = binary.BigEndian.AppendUint64(body, 10)
	body = binary.BigEndian.AppendUint16(body, 1) // one proposal
	body = binary.BigEndian.AppendUint64(body, 20)
	body = binary.BigEndian.AppendUint64(body, 7) // gateway
	body = binary.BigEndian.AppendUint64(body, 7) // parent
	body = binary.BigEndian.AppendUint32(body, 0) // hops
	return rawFrame(TProfile, body)
}

// rawFrame wraps a hand-built body in a valid header, from 1 to 2.
func rawFrame(typ byte, body []byte) []byte {
	frame := make([]byte, HeaderSize, HeaderSize+len(body))
	frame[0], frame[1], frame[2], frame[3] = magic[0], magic[1], Version, typ
	binary.BigEndian.PutUint64(frame[4:12], 1)
	binary.BigEndian.PutUint64(frame[12:20], 2)
	binary.BigEndian.PutUint32(frame[20:24], uint32(len(body)))
	frame = append(frame, body...)
	rechecksum(frame)
	return frame
}

// digestAndBodyFrame is a profile message carrying both a digest and a
// body, which no encoder emits.
func digestAndBodyFrame() []byte {
	body := []byte{profileHasBody | profileHasDigest}
	body = binary.BigEndian.AppendUint64(body, 0xfeed) // digest
	body = binary.BigEndian.AppendUint64(body, 42)     // id
	body = binary.BigEndian.AppendUint16(body, 0)      // no subscriptions
	body = binary.BigEndian.AppendUint16(body, 0)      // no proposals
	return rawFrame(TProfile, body)
}

// zeroDigestFrame is a beacon whose digest is the reserved 0.
func zeroDigestFrame() []byte {
	return rawFrame(TProfile, binary.BigEndian.AppendUint64([]byte{profileHasDigest}, 0))
}

// TestDecodeRejectsNonCanonicalBeacons: a digest rides only on a body-less
// profile message and is never 0, and unknown flag bits stay errors — the
// same rule that makes a decoder without the digest bits reject beacons
// loudly instead of misreading them.
func TestDecodeRejectsNonCanonicalBeacons(t *testing.T) {
	for name, frame := range map[string][]byte{
		"body and digest": digestAndBodyFrame(),
		"zero digest":     zeroDigestFrame(),
		"unknown bit":     rawFrame(TProfile, []byte{1 << 4}),
	} {
		if _, _, _, err := Decode(frame); !errors.Is(err, ErrCanonical) {
			t.Errorf("%s: err = %v, want ErrCanonical", name, err)
		}
	}
	_, err := Encode(1, 2, core.ProfileMsg{Profile: &core.Profile{ID: 1}, Digest: 5})
	if !errors.Is(err, ErrCanonical) {
		t.Errorf("encoding a body and a digest: err = %v, want ErrCanonical", err)
	}
}

// TestAppendEncodeProfileZeroAlloc: profiles keep their proposals sorted,
// so a heartbeat — full, beacon or want — encodes into a warm batch buffer
// without a key slice or a sort.
func TestAppendEncodeProfileZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	buf := make([]byte, 0, 4096)
	for _, m := range Samples() {
		pm, ok := m.(core.ProfileMsg)
		if !ok {
			continue
		}
		var msg simnet.Message = pm // boxed once, as the node does
		allocs := testing.AllocsPerRun(1000, func() {
			var err error
			buf, err = AppendEncode(buf[:0], 7, 9, msg)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("AppendEncode(%+v) allocates %.1f times per frame, want 0", pm, allocs)
		}
	}
}

// TestDecodeTManBufferAllocs: all subscription lists of one T-Man buffer
// share one backing array, so decoding costs four allocations whatever the
// number of descriptors, instead of two per descriptor.
func TestDecodeTManBufferAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	const n = 30
	buf := make([]tman.Descriptor, n)
	for i := range buf {
		buf[i].ID = simnet.NodeID(i + 1)
		if i%3 != 0 { // sampled peers travel without a payload
			subs := core.SubsSummary{core.TopicID(i), core.TopicID(i + 100), core.TopicID(i + 200)}
			buf[i].Payload = &subs
		}
	}
	frame, err := Encode(1, 2, tman.Request{Buffer: buf})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, err := Decode(frame); err != nil {
			t.Fatal(err)
		}
	})
	// The descriptors, their list headers, one backing array for every
	// list, and the boxed message.
	if allocs > 4 {
		t.Errorf("Decode of a %d-descriptor T-Man buffer allocates %.1f times, want 4", n, allocs)
	}
}
