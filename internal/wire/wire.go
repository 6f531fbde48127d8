// Package wire is the versioned binary codec of the Vitis protocols: it
// turns the in-memory message values of internal/core, internal/sampling,
// internal/tman and internal/bootstrap into framed byte slices and back,
// so the same protocol code that runs inside the simulator can run over
// real transports (internal/transport) and between real processes
// (cmd/vitis-node).
//
// # Frame layout
//
// Every message is one frame: a fixed 28-byte header followed by the body.
// The header size equals simnet.HeaderBytes by construction, so the
// simulator's bandwidth accounting (simnet.WireSizeOf) matches encoded
// frames byte-for-byte — a consistency test in this package enforces it
// for every registered message type.
//
//	offset  size  field
//	0       2     magic "Vw"
//	2       1     version (currently 1)
//	3       1     message type (registry below)
//	4       8     sender node id (big endian)
//	12      8     destination node id (big endian)
//	20      4     body length
//	24      4     CRC-32 (IEEE) of the body
//
// # Canonical encoding
//
// Decode is strict: unknown types, flag bits, non-canonical orderings
// (e.g. unsorted subscription lists) and trailing bytes are rejected. As a
// consequence Encode(Decode(frame)) == frame for every frame Decode
// accepts, which the fuzz harness verifies.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"vitis/internal/simnet"
)

// Frame geometry and limits.
const (
	// HeaderSize is the fixed frame header length; it must equal
	// simnet.HeaderBytes so simulated and real traffic agree.
	HeaderSize = 28
	// Version is the codec version stamped into every frame.
	Version = 1
	// MaxBody bounds the body so a whole frame fits one UDP datagram.
	MaxBody = 65507 - HeaderSize
)

// The two magic bytes leading every frame.
var magic = [2]byte{'V', 'w'}

// Message type registry. Values are part of the wire format; never reuse
// or renumber them — add new types at the end. 3 and 4 belonged to a
// retired peer sampler: they stay reserved and decode as ErrUnknownType.
const (
	TSamplingRequest byte = 1  // sampling.Request
	TSamplingReply   byte = 2  // sampling.Reply
	TTManRequest     byte = 5  // tman.Request
	TTManReply       byte = 6  // tman.Reply
	TJoinReq         byte = 7  // bootstrap.JoinReq
	TJoinResp        byte = 8  // bootstrap.JoinResp
	TAnnounce        byte = 9  // bootstrap.Announce
	TProfile         byte = 10 // core.ProfileMsg
	TRelay           byte = 11 // core.RelayMsg
	TNotification    byte = 12 // core.Notification
	TPullReq         byte = 13 // core.PullReq
	TPullResp        byte = 14 // core.PullResp
	TReplayReq       byte = 15 // core.ReplayReq
	TCatchUpReq      byte = 16 // core.CatchUpReq
	TCatchUpResp     byte = 17 // core.CatchUpResp
)

// Decode/Encode failure modes.
var (
	ErrShortFrame  = errors.New("wire: frame shorter than header")
	ErrBadMagic    = errors.New("wire: bad magic")
	ErrBadVersion  = errors.New("wire: unsupported version")
	ErrUnknownType = errors.New("wire: unknown message type")
	ErrFrameLength = errors.New("wire: body length disagrees with frame")
	ErrChecksum    = errors.New("wire: body checksum mismatch")
	ErrTruncated   = errors.New("wire: truncated body")
	ErrTrailing    = errors.New("wire: trailing bytes after body")
	ErrCanonical   = errors.New("wire: non-canonical encoding")
	ErrTooLarge    = errors.New("wire: message exceeds MaxBody")
	ErrUnkeyable   = errors.New("wire: message type not registered")
)

// typeNames maps registry bytes to human-readable names for errors, logs
// and tests.
var typeNames = map[byte]string{
	TSamplingRequest: "sampling.Request",
	TSamplingReply:   "sampling.Reply",
	TTManRequest:     "tman.Request",
	TTManReply:       "tman.Reply",
	TJoinReq:         "bootstrap.JoinReq",
	TJoinResp:        "bootstrap.JoinResp",
	TAnnounce:        "bootstrap.Announce",
	TProfile:         "core.ProfileMsg",
	TRelay:           "core.RelayMsg",
	TNotification:    "core.Notification",
	TPullReq:         "core.PullReq",
	TPullResp:        "core.PullResp",
	TReplayReq:       "core.ReplayReq",
	TCatchUpReq:      "core.CatchUpReq",
	TCatchUpResp:     "core.CatchUpResp",
}

// TypeName returns the registry name of a message-type byte, or a numeric
// placeholder for unknown bytes.
func TypeName(t byte) string {
	if n, ok := typeNames[t]; ok {
		return n
	}
	return fmt.Sprintf("type(%d)", t)
}

// Types returns every registered message-type byte in ascending order.
func Types() []byte {
	out := make([]byte, 0, len(typeNames))
	for t := range typeNames {
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}

// Encode serialises msg into a complete frame addressed from one node to
// another. It fails on message types outside the registry, on simulation-
// only descriptor payloads, and on bodies larger than MaxBody.
func Encode(from, to simnet.NodeID, msg simnet.Message) ([]byte, error) {
	return AppendEncode(make([]byte, 0, HeaderSize+64), from, to, msg)
}

// zeroHeader is the blank header template AppendEncode reserves space with;
// appending from a package-level array costs no allocation.
var zeroHeader [HeaderSize]byte

// AppendEncode appends msg's complete frame to dst and returns the extended
// slice, exactly like append. When dst has spare capacity the encode is
// allocation-free, which is what the batched UDP send path relies on: frames
// are encoded directly into per-peer batch buffers (an AllocsPerRun test
// pins this). On error dst is returned unchanged.
func AppendEncode(dst []byte, from, to simnet.NodeID, msg simnet.Message) ([]byte, error) {
	base := len(dst)
	w := writer{b: append(dst, zeroHeader[:]...)}
	typ, err := encodeBody(&w, msg)
	if err != nil {
		return dst, err
	}
	body := w.b[base+HeaderSize:]
	if len(body) > MaxBody {
		return dst, fmt.Errorf("%w: %s body is %d bytes", ErrTooLarge, TypeName(typ), len(body))
	}
	h := w.b[base : base+HeaderSize]
	h[0], h[1] = magic[0], magic[1]
	h[2] = Version
	h[3] = typ
	binary.BigEndian.PutUint64(h[4:12], uint64(from))
	binary.BigEndian.PutUint64(h[12:20], uint64(to))
	binary.BigEndian.PutUint32(h[20:24], uint32(len(body)))
	binary.BigEndian.PutUint32(h[24:28], crc32.ChecksumIEEE(body))
	return w.b, nil
}

// Decode parses a complete frame. It never panics on malformed input and
// accepts only canonical encodings, so re-encoding the result reproduces
// the input frame exactly.
func Decode(frame []byte) (from, to simnet.NodeID, msg simnet.Message, err error) {
	if len(frame) < HeaderSize {
		return 0, 0, nil, ErrShortFrame
	}
	if frame[0] != magic[0] || frame[1] != magic[1] {
		return 0, 0, nil, ErrBadMagic
	}
	if frame[2] != Version {
		return 0, 0, nil, ErrBadVersion
	}
	typ := frame[3]
	from = simnet.NodeID(binary.BigEndian.Uint64(frame[4:12]))
	to = simnet.NodeID(binary.BigEndian.Uint64(frame[12:20]))
	bodyLen := binary.BigEndian.Uint32(frame[20:24])
	body := frame[HeaderSize:]
	if int(bodyLen) != len(body) {
		return 0, 0, nil, ErrFrameLength
	}
	if binary.BigEndian.Uint32(frame[24:28]) != crc32.ChecksumIEEE(body) {
		return 0, 0, nil, ErrChecksum
	}
	r := &reader{b: body}
	msg, err = decodeBody(typ, r)
	if err == nil {
		err = r.finish()
	}
	if err != nil {
		return 0, 0, nil, fmt.Errorf("%s: %w", TypeName(typ), err)
	}
	return from, to, msg, nil
}

// writer accumulates big-endian fields; the first HeaderSize bytes are
// reserved for the header.
type writer struct{ b []byte }

func (w *writer) u8(v byte)      { w.b = append(w.b, v) }
func (w *writer) u16(v uint16)   { w.b = binary.BigEndian.AppendUint16(w.b, v) }
func (w *writer) u32(v uint32)   { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *writer) u64(v uint64)   { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *writer) bytes(p []byte) { w.b = append(w.b, p...) }

// reader consumes big-endian fields with a sticky error, so decoders can
// chain reads and check once.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b)-r.off < n {
		r.fail(ErrTruncated)
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *reader) u8() byte {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *reader) u16() uint16 {
	p := r.take(2)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint16(p)
}

func (r *reader) u32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint32(p)
}

func (r *reader) u64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

// count reads a u16 element count and verifies the remaining body can hold
// that many elements of at least minBytes each, bounding allocations on
// malformed input.
func (r *reader) count(minBytes int) int {
	n := int(r.u16())
	if r.err == nil && len(r.b)-r.off < n*minBytes {
		r.fail(ErrTruncated)
		return 0
	}
	if r.err != nil {
		return 0
	}
	return n
}

func (r *reader) remaining() int { return len(r.b) - r.off }

// finish reports the sticky error, or ErrTrailing if the body was not
// consumed exactly.
func (r *reader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return ErrTrailing
	}
	return nil
}
