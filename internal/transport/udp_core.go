package transport

import (
	"errors"
	"maps"
	"net/netip"
	"time"

	"vitis/internal/bootstrap"
	"vitis/internal/core"
	"vitis/internal/sampling"
	"vitis/internal/simnet"
	"vitis/internal/telemetry"
	"vitis/internal/tman"
	"vitis/internal/wire"
)

// UDP datagram envelope. Node ids are logical addresses; UDP needs a
// mapping from id to socket address, which the envelope bootstraps and
// gossips:
//
//	offset  size  field
//	0       2     magic "VP"
//	2       1     envelope version (2; anything else is an RxError)
//	3       1     flags: bit0 = carries wire frames, bit1 = ack requested
//	4       1     nSrc, then nSrc × 8-byte local node ids of the sender
//	.       1     nHints, then nHints × (id u64, ipLen u8, ip, port u16)
//	.       2     nFrames, then nFrames × (len u16, wire frame)
//
// Send appends frames to the destination's batch buffer and puts that queue
// on the dirty list; Flush writes every dirty queue's batch, one datagram per
// peer (split at batchBytes only when a batch outgrew one). The protocol loop
// calls Flush at the end of every turn (Driver.Run), so what a turn produced
// for one peer travels together and nothing waits for a timer. Frames of
// senders nobody drives are written by the socket's timer, which calls tick
// at nextDeadline: at most flushInterval after the dirty list became
// non-empty.
//
// Receivers learn "these ids live at the datagram's source address" from
// the src list, and third-party addresses from the hints, so any node
// mentioned in a view exchange or join reply becomes routable without a
// directory service. Hints are sent only when the peer can need them: a
// frame-carrying datagram hints the ids its messages mention, each id at
// most once per hintEvery per peer (see peerQueue.slot). The interval is
// tied to pendingTimeout because that is how long the receiver keeps frames
// stashed for an id it cannot reach yet: if the datagram with the first
// hint is lost, the repeat still arrives while the stash is alive. Arbitrary
// book entries pad the hints only where they bootstrap someone: hellos,
// acks and the first datagram of a fresh queue.
// A datagram with bit1 set requests an empty reply (a hello/ack pair), used
// by Resolve to learn which node ids a known socket address hosts.
const (
	envVersion  = 2
	flagFrame   = 1 << 0
	flagAckReq  = 1 << 1
	maxDatagram = 65507

	// maxHints bounds the address hints per datagram, both those we write
	// and those one received datagram may teach; the builder deduplicates
	// them in a fixed array instead of a map.
	maxHints = 8
	// maxMentioned bounds the mentioned-id accumulation per batch.
	maxMentioned = 64
	// hintLedgerSize is how many recently hinted ids a queue remembers: two
	// hint sections, for each of a node's dozens of peers. On overflow the
	// oldest entry goes and that id is hinted once more.
	hintLedgerSize = 16
	// batchBytes is the target datagram payload, the common ethernet-safe
	// size: a batch that outgrew it is split into datagrams of at most this
	// many frame bytes.
	batchBytes = 1400
	// queueBytes bounds each per-peer batch buffer; overflow drops the
	// newest frame, mirroring congestion loss.
	queueBytes = 256 << 10
	// pendingCap bounds the frames stashed for a peer whose address is
	// still unknown; overflow drops the oldest stash entry.
	pendingCap = 16

	// flushInterval is the longest a frame waits when nobody calls Flush:
	// tick writes the dirty queues this long after the first of them got a
	// frame. A driven Host flushes at the end of every turn and never gets
	// there.
	flushInterval = 2 * time.Millisecond
	// idleTimeout frees a peer's batch buffer and hint ledger after this
	// long without traffic; the next Send revives it.
	idleTimeout = time.Minute
	// pendingTimeout ages out stashed frames whose peer address never
	// resolved; aged frames count as TxDropped.
	pendingTimeout = 10 * time.Second
	// hintEvery is the shortest interval between two hints of one id to
	// one peer.
	hintEvery = pendingTimeout / 2
	// peerTTL evicts address-book entries not refreshed by traffic for this
	// long, bounding book growth under churn.
	peerTTL = 10 * time.Minute
	// reapEvery is how often tick runs the reaper: four times per
	// pendingTimeout, the shortest of the three limits it applies.
	reapEvery = pendingTimeout / 4
)

var envMagic = [2]byte{'V', 'P'}

// udpCore is the UDP transport's protocol state: the address book, the
// unresolved-peer stash, the per-peer batch buffers and their dirty list,
// the hint ledgers, envelope build and parse, and the reaper. It has no
// socket, no goroutine, no lock and no clock: every entry point takes now,
// a duration on the owner's monotonic clock, and returns what to write.
// The UDP shell calls it under one mutex; tests call it directly.
type udpCore struct {
	tel *telemetry.TransportMetrics
	// local is replaced, never mutated (see setLocal), so a receive can
	// hand the shell one snapshot to check a whole datagram's frames against.
	local   map[simnet.NodeID]bool
	book    map[simnet.NodeID]bookEntry
	queues  map[simnet.NodeID]*peerQueue
	pending map[simnet.NodeID][]pendingFrame
	dirty   []*peerQueue  // queues holding unwritten frames, oldest first
	reapAt  time.Duration // when tick next runs the reaper

	// out holds the datagrams of one flush back to back, or one hello or
	// ack; dgrams points into it. Both are valid until the next call.
	out    []byte
	dgrams []datagram
}

// datagram is one envelope to write and where to write it.
type datagram struct {
	addr netip.AddrPort
	b    []byte
}

// bookEntry is one address-book record: where a node id lives and when
// traffic last confirmed it, for peerTTL eviction.
type bookEntry struct {
	addr netip.AddrPort
	seen time.Duration
}

// pendingFrame is one frame stashed for a peer whose address is unknown,
// timestamped for pendingTimeout age-out, with the ids it mentions so they
// are still hinted when the stash flushes.
type pendingFrame struct {
	frame     []byte
	mentioned []simnet.NodeID
	at        time.Duration
}

// peerQueue is one peer's batch state and hint ledger. It dies when the
// reaper frees the idle queue; a peer back from idle starts afresh.
type peerQueue struct {
	id         simnet.NodeID // never hinted: it knows where it lives
	addr       netip.AddrPort
	buf        []byte        // length-prefixed frames awaiting flush
	frames     int           // frame count in buf; the queue is dirty while > 0
	since      time.Duration // when buf's first frame was queued
	lastActive time.Duration
	mentioned  []simnet.NodeID // ids mentioned by the frames in buf
	padded     bool            // the queue's first datagram went out, with book padding
	hinted     [hintLedgerSize]hintSlot
}

// hintSlot records that id's address was sent to the peer at time at. A
// slot is free until used: every instant, 0 included, is a valid time.
type hintSlot struct {
	id   simnet.NodeID
	at   time.Duration
	used bool
}

func newUDPCore(tel *telemetry.TransportMetrics) *udpCore {
	return &udpCore{
		tel:     tel,
		local:   make(map[simnet.NodeID]bool),
		book:    make(map[simnet.NodeID]bookEntry),
		queues:  make(map[simnet.NodeID]*peerQueue),
		pending: make(map[simnet.NodeID][]pendingFrame),
		reapAt:  reapEvery,
	}
}

// setLocal swaps in a copy of the hosted-id set with id added or removed.
func (c *udpCore) setLocal(id simnet.NodeID, hosted bool) {
	c.local = maps.Clone(c.local)
	if hosted {
		c.local[id] = true
	} else {
		delete(c.local, id)
	}
}

// send encodes msg straight into the peer's batch buffer (allocation-free
// when the buffer has capacity) or, for a peer with no known address,
// stashes it until one is learned. Frames that cannot fit a datagram or
// would overflow queueBytes are counted as drops.
func (c *udpCore) send(from, to simnet.NodeID, msg simnet.Message, now time.Duration) error {
	if _, known := c.book[to]; !known {
		return c.stash(from, to, msg, now)
	}
	q := c.queue(to, now)
	off := len(q.buf)
	var err error
	if q.buf, err = wire.AppendEncode(append(q.buf, 0, 0), from, to, msg); err != nil {
		q.buf = q.buf[:off]
		return err
	}
	if c.commit(q, off, now) && len(q.mentioned) < maxMentioned {
		q.mentioned = appendMentionedIDs(q.mentioned, msg)
	}
	return nil
}

// stash parks a frame for a peer with no known address. Overflow drops the
// oldest stash entry, which is congestion loss and must be visible: it
// counts as TxDropped and releases the TxPending gauge.
func (c *udpCore) stash(from, to simnet.NodeID, msg simnet.Message, now time.Duration) error {
	frame, err := wire.Encode(from, to, msg)
	if err != nil {
		return err
	}
	stash := c.pending[to]
	if len(stash) >= pendingCap {
		copy(stash, stash[1:])
		stash = stash[:len(stash)-1]
		c.tel.TxDropped.Inc()
		c.tel.TxPending.Add(-1)
	}
	c.pending[to] = append(stash, pendingFrame{frame: frame, mentioned: appendMentionedIDs(nil, msg), at: now})
	c.tel.TxPending.Add(1)
	return nil
}

// queue returns the peer's batch queue, creating it on first use. The peer
// must be in the book.
func (c *udpCore) queue(to simnet.NodeID, now time.Duration) *peerQueue {
	q := c.queues[to]
	if q == nil {
		q = &peerQueue{id: to, addr: c.book[to].addr, lastActive: now}
		c.queues[to] = q
	}
	return q
}

// commit books the frame appended to q.buf at off behind a two-byte length
// placeholder, or reverts it as a drop when it cannot fit a datagram or
// overflows queueBytes. A batch's first frame puts the queue on the dirty
// list.
func (c *udpCore) commit(q *peerQueue, off int, now time.Duration) bool {
	flen := len(q.buf) - off - 2
	if flen > maxDatagram-c.envOverhead() || len(q.buf) > queueBytes {
		q.buf = q.buf[:off]
		c.tel.TxDropped.Inc()
		return false
	}
	q.buf[off], q.buf[off+1] = byte(flen>>8), byte(flen)
	q.lastActive = now
	if q.frames == 0 {
		q.since = now
		c.dirty = append(c.dirty, q)
	}
	q.frames++
	c.tel.TxFrames.Inc()
	c.tel.QueueDepth.Add(1)
	return true
}

// envOverhead is the worst-case envelope size around a batch: header,
// local-id list, a full hint section, the frame count, and one frame length
// prefix.
func (c *udpCore) envOverhead() int {
	return 4 + 1 + 8*min(len(c.local), 255) + 1 + maxHints*(8+1+16+2) + 2 + 2
}

// nextDeadline is when tick next has work: the oldest dirty queue's flush
// deadline or the reaper's next run, whichever comes first.
func (c *udpCore) nextDeadline() time.Duration {
	if len(c.dirty) > 0 {
		return min(c.dirty[0].since+flushInterval, c.reapAt)
	}
	return c.reapAt
}

// tick does what is due at now: the reaper every reapEvery, and a flush of
// every dirty queue once the oldest has waited flushInterval. It returns
// the flush's datagrams, nil when none was due.
func (c *udpCore) tick(now time.Duration) []datagram {
	if now >= c.reapAt {
		c.reap(now)
		c.reapAt = now + reapEvery
	}
	if len(c.dirty) > 0 && now >= c.dirty[0].since+flushInterval {
		return c.flush(now)
	}
	return nil
}

// flush wraps the batch of every dirty queue into envelopes, one per peer
// unless a batch outgrew batchBytes, in Send order.
func (c *udpCore) flush(now time.Duration) []datagram {
	c.out, c.dgrams = c.out[:0], c.dgrams[:0]
	for i, q := range c.dirty {
		c.dirty[i] = nil
		for off := 0; off < len(q.buf); {
			start, n := off, 0
			for off < len(q.buf) {
				next := off + 2 + (int(q.buf[off])<<8 | int(q.buf[off+1]))
				if n > 0 && next-start > batchBytes {
					break
				}
				off = next
				n++
			}
			at := len(c.out)
			c.out = c.appendEnvelope(c.out, flagFrame, q.buf[start:off], n, q, now)
			c.dgrams = append(c.dgrams, datagram{addr: q.addr, b: c.out[at:]})
			c.tel.FlushWait.Observe((now - q.since).Seconds())
		}
		c.tel.QueueDepth.Add(-int64(q.frames))
		q.buf, q.frames, q.mentioned = q.buf[:0], 0, q.mentioned[:0]
	}
	c.dirty = c.dirty[:0]
	return c.dgrams
}

// bare returns an envelope without frames — a hello with flagAckReq, an ack
// without — padded with book entries for a newcomer.
func (c *udpCore) bare(flags byte, now time.Duration) []byte {
	c.out = c.appendEnvelope(c.out[:0], flags, nil, 0, nil, now)
	return c.out
}

// learn records id → addr, refreshes the entry's liveness, retargets the
// peer's queue, and queues any frames stashed while the address was
// unknown.
func (c *udpCore) learn(id simnet.NodeID, addr netip.AddrPort, now time.Duration) {
	e, known := c.book[id]
	c.book[id] = bookEntry{addr: addr, seen: now}
	if !known || e.addr != addr {
		c.tel.KnownPeers.Set(int64(len(c.book)))
		if q := c.queues[id]; q != nil {
			q.addr = addr
		}
	}
	stash := c.pending[id]
	if len(stash) == 0 {
		return
	}
	delete(c.pending, id)
	q := c.queue(id, now)
	for _, pf := range stash {
		off := len(q.buf)
		q.buf = append(append(q.buf, 0, 0), pf.frame...)
		if c.commit(q, off, now) && len(q.mentioned) < maxMentioned {
			q.mentioned = append(q.mentioned, pf.mentioned...)
		}
	}
	c.tel.TxPending.Add(-int64(len(stash)))
}

// lowestAt returns the lowest id the book places at addr, so a joiner
// resolving a multi-node process gets the same identity as every other.
func (c *udpCore) lowestAt(addr netip.AddrPort) (best simnet.NodeID, found bool) {
	for id, e := range c.book {
		if e.addr == addr && (!found || id < best) {
			best, found = id, true
		}
	}
	return best, found
}

// appendEnvelope appends a complete datagram envelope around a batch of
// length-prefixed frames (or none, for hellos and acks), piggybacking our
// local ids and up to maxHints address hints: the ids mentioned inside q's
// batch that q's ledger says the peer is owed (so a node receiving a view
// exchange can reach the peers it was just told about), and arbitrary book
// entries only on hellos, acks (no queue: q is nil) and a queue's first
// datagram, where Go's random map order spreads the book to a newcomer.
// Allocation-free when dst has capacity — hint dedup uses a fixed array,
// not a map.
func (c *udpCore) appendEnvelope(dst []byte, flags byte, frames []byte, nFrames int, q *peerQueue, now time.Duration) []byte {
	if nFrames > 0 {
		flags |= flagFrame
	} else {
		flags &^= flagFrame
	}
	dst = append(dst, envMagic[0], envMagic[1], envVersion, flags)

	nSrcAt := len(dst)
	dst = append(dst, 0)
	n := 0
	for id := range c.local {
		if n == 255 {
			break
		}
		dst = appendU64(dst, uint64(id))
		n++
	}
	dst[nSrcAt] = byte(n)

	nHintsAt := len(dst)
	dst = append(dst, 0)
	budget := maxDatagram - len(dst) - 2 - len(frames)
	var added [maxHints]simnet.NodeID
	nh := 0
	pad := nFrames == 0 || q != nil && !q.padded
	if q != nil {
		q.padded = true
		for _, id := range q.mentioned {
			if nh >= maxHints {
				break
			}
			if s := q.slot(id, now); id != q.id && s != nil {
				was := nh
				dst, nh, budget = c.appendHint(dst, id, &added, nh, budget)
				if nh > was {
					*s = hintSlot{id: id, at: now, used: true}
				}
			}
		}
	}
	if pad {
		for id := range c.book {
			if nh >= maxHints {
				break
			}
			if q == nil || id != q.id {
				dst, nh, budget = c.appendHint(dst, id, &added, nh, budget)
			}
		}
	}
	dst[nHintsAt] = byte(nh)
	c.tel.TxHints.Add(uint64(nh))

	dst = append(dst, byte(nFrames>>8), byte(nFrames))
	return append(dst, frames...)
}

// slot returns where to record id's next hint — its own slot, else a free
// one, else the oldest — or nil when the peer was sent id less than
// hintEvery ago.
func (q *peerQueue) slot(id simnet.NodeID, now time.Duration) *hintSlot {
	victim := &q.hinted[0]
	for i := range q.hinted {
		s := &q.hinted[i]
		if s.used && s.id == id {
			if now-s.at < hintEvery {
				return nil
			}
			return s
		}
		if victim.used && (!s.used || s.at < victim.at) {
			victim = s
		}
	}
	return victim
}

// appendHint appends one address hint if the id is hintable (known, not
// local, not already added, fits the budget).
func (c *udpCore) appendHint(dst []byte, id simnet.NodeID, added *[maxHints]simnet.NodeID, nh, budget int) ([]byte, int, int) {
	if c.local[id] {
		return dst, nh, budget
	}
	for i := 0; i < nh; i++ {
		if added[i] == id {
			return dst, nh, budget
		}
	}
	e, ok := c.book[id]
	if !ok {
		return dst, nh, budget
	}
	a := e.addr.Addr()
	a16 := a.As16()
	ip := a16[:]
	if a.Is4() {
		ip = ip[12:]
	}
	sz := 8 + 1 + len(ip) + 2
	if sz > budget {
		return dst, nh, budget
	}
	added[nh] = id
	dst = appendU64(dst, uint64(id))
	dst = append(dst, byte(len(ip)))
	dst = append(dst, ip...)
	dst = append(dst, byte(e.addr.Port()>>8), byte(e.addr.Port()))
	return dst, nh + 1, budget - sz
}

// reap ages out pending stashes whose peer never resolved, evicts
// address-book entries not refreshed within peerTTL and frees the queues of
// peers idle for idleTimeout, so churned peers do not pin memory forever.
func (c *udpCore) reap(now time.Duration) {
	for id, q := range c.queues {
		if q.frames == 0 && now-q.lastActive > idleTimeout {
			delete(c.queues, id)
		}
	}
	for id, stash := range c.pending {
		// Stashes are append-ordered, so expired entries form a prefix.
		cut := 0
		for cut < len(stash) && now-stash[cut].at > pendingTimeout {
			cut++
		}
		if cut == 0 {
			continue
		}
		c.tel.TxDropped.Add(uint64(cut))
		c.tel.TxPending.Add(-int64(cut))
		if cut == len(stash) {
			delete(c.pending, id)
		} else {
			c.pending[id] = append(stash[:0], stash[cut:]...)
		}
	}
	n := len(c.book)
	for id, e := range c.book {
		if now-e.seen > peerTTL {
			delete(c.book, id)
		}
	}
	if len(c.book) != n {
		c.tel.KnownPeers.Set(int64(len(c.book)))
	}
}

// inbound is what one received datagram asks of the shell: an ack to write
// back to its source (nil if none; valid until the next core call), and
// frames to dispatch against the hosted-id snapshot of their arrival.
type inbound struct {
	ack    []byte
	frames []byte // nFrames × (len u16, wire frame), aliasing the datagram
	hosted map[simnet.NodeID]bool
}

// receive applies one datagram from src: learn addresses, build the ack it
// requests, and return its frames for dispatch. Hints are second-hand, so a
// datagram may teach only as many as an honest sender can write, and never
// overrides an address already in the book. Steady-state datagrams from
// known peers are handled without allocating.
func (c *udpCore) receive(src netip.AddrPort, b []byte, now time.Duration) inbound {
	c.tel.RxBytes.Add(uint64(len(b)))
	env, err := parseEnvelope(b)
	if err != nil {
		c.tel.RxErrors.Inc()
		return inbound{}
	}
	for ids := env.src; len(ids) > 0; ids = ids[8:] {
		c.learn(simnet.NodeID(takeU64(ids)), src, now)
	}
	hints := env.hints
	for i := 0; i < env.nHints && i < maxHints; i++ {
		id, ipLen := simnet.NodeID(takeU64(hints)), int(hints[8])
		if _, ok := c.book[id]; !ok {
			ip, _ := netip.AddrFromSlice(hints[9 : 9+ipLen]) // 4 or 16 bytes, per parseEnvelope
			port := uint16(hints[9+ipLen])<<8 | uint16(hints[9+ipLen+1])
			c.learn(id, netip.AddrPortFrom(ip.Unmap(), port), now)
		}
		hints = hints[9+ipLen+2:]
	}
	c.tel.RxDatagrams.Inc()
	if env.nHints > maxHints {
		c.tel.RxErrors.Inc()
	}
	in := inbound{frames: env.frames, hosted: c.local}
	if env.flags&flagAckReq != 0 {
		in.ack = c.bare(0, now)
	}
	return in
}

// dispatch decodes each frame and hands it to recv if its destination is
// hosted. It touches no core state, so the shell runs it outside its lock.
func (in inbound) dispatch(tel *telemetry.TransportMetrics, recv RecvFunc) {
	for frames := in.frames; len(frames) > 0; {
		flen := int(frames[0])<<8 | int(frames[1])
		from, to, msg, err := wire.Decode(frames[2 : 2+flen])
		frames = frames[2+flen:]
		switch {
		case err != nil:
			tel.RxErrors.Inc()
		case !in.hosted[to]:
			tel.RxUnroutable.Inc()
		default:
			tel.RxFrames.Inc()
			if recv != nil {
				recv(from, to, msg)
			}
		}
	}
}

// envelope is one parsed datagram; its slices alias the datagram.
type envelope struct {
	flags   byte
	src     []byte // the sender's local ids, 8 bytes each
	nHints  int
	hints   []byte // nHints × (id u64, ipLen u8, ip, port u16)
	nFrames int
	frames  []byte // nFrames × (len u16, wire frame)
}

var errEnvelope = errors.New("transport: malformed envelope")

// parseEnvelope checks a datagram against the envelope layout down to the
// last byte and splits it into its sections. It is pure: no book mutation,
// no allocation; FuzzEnvelope holds it to that.
func parseEnvelope(b []byte) (envelope, error) {
	var e envelope
	if len(b) < 5 || b[0] != envMagic[0] || b[1] != envMagic[1] || b[2] != envVersion {
		return e, errEnvelope
	}
	e.flags = b[3]
	n, rest := 8*int(b[4]), b[5:]
	if len(rest) < n+1 {
		return e, errEnvelope
	}
	e.src, e.nHints, rest = rest[:n], int(rest[n]), rest[n+1:]
	e.hints = rest
	for i := 0; i < e.nHints; i++ {
		if len(rest) < 9 || rest[8] != 4 && rest[8] != 16 || len(rest) < 9+int(rest[8])+2 {
			return e, errEnvelope
		}
		rest = rest[9+int(rest[8])+2:]
	}
	e.hints = e.hints[:len(e.hints)-len(rest)]
	if len(rest) < 2 {
		return e, errEnvelope
	}
	e.nFrames, rest = int(rest[0])<<8|int(rest[1]), rest[2:]
	e.frames = rest
	for i := 0; i < e.nFrames; i++ {
		if len(rest) < 2 || len(rest) < 2+(int(rest[0])<<8|int(rest[1])) {
			return e, errEnvelope
		}
		rest = rest[2+(int(rest[0])<<8|int(rest[1])):]
	}
	if len(rest) != 0 || (e.flags&flagFrame != 0) != (e.nFrames > 0) {
		return e, errEnvelope
	}
	return e, nil
}

// appendMentionedIDs appends the node ids a message tells its receiver
// about, so the envelope can attach their addresses as hints and keep the
// epidemic address book one step ahead of the protocol. Appends into the
// caller's buffer so the batch path stays allocation-free once warm.
func appendMentionedIDs(dst []simnet.NodeID, msg simnet.Message) []simnet.NodeID {
	switch m := msg.(type) {
	case bootstrap.JoinResp:
		return append(dst, m.Peers...)
	case sampling.Request:
		return appendSamplingIDs(dst, m.View)
	case sampling.Reply:
		return appendSamplingIDs(dst, m.View)
	case tman.Request:
		return appendTManIDs(dst, m.Buffer)
	case tman.Reply:
		return appendTManIDs(dst, m.Buffer)
	case core.RelayMsg:
		return append(dst, m.Origin)
	}
	return dst
}

func appendSamplingIDs(dst []simnet.NodeID, view []sampling.Descriptor) []simnet.NodeID {
	for _, d := range view {
		dst = append(dst, d.ID)
	}
	return dst
}

func appendTManIDs(dst []simnet.NodeID, buf []tman.Descriptor) []simnet.NodeID {
	for _, d := range buf {
		dst = append(dst, d.ID)
	}
	return dst
}

// unmapped strips the IPv4-in-IPv6 form, so a peer has one book value on
// IPv4 and dual-stack sockets alike.
func unmapped(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func takeU64(b []byte) uint64 {
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}
