package transport

import (
	"errors"
	"maps"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
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
// on the socket's dirty list; Flush writes every dirty queue's batch, one
// datagram per peer (split at batchBytes only when a batch outgrew one). The
// protocol loop calls Flush at the end of every turn (Driver.Run), so what a
// turn produced for one peer travels together and nothing waits for a timer.
// Frames of senders nobody drives are written by the socket's one deadline
// goroutine, which calls the same Flush at most flushInterval after the dirty
// list became non-empty.
//
// Receivers learn "these ids live at the datagram's source address" from
// the src list, and third-party addresses from the hints, so any node
// mentioned in a view exchange or join reply becomes routable without a
// directory service. Hints are sent only when the peer can need them: a
// frame-carrying datagram hints the ids its messages mention, each id at
// most once per pendingTimeout/2 per peer (see hintLedger). The interval is
// tied to pendingTimeout because that is how long the receiver keeps frames
// stashed for an id it cannot reach yet: if the datagram with the first
// hint is lost, the repeat still arrives while the stash is alive. Arbitrary
// book entries pad the hints only where they bootstrap someone: hellos,
// acks and the first datagram of a fresh queue.
// A datagram with bit1 set requests an empty reply (a hello/ack pair), used
// by Resolve to learn which node ids a known socket address hosts.
const (
	envVersion   = 2
	flagFrame    = 1 << 0
	flagAckReq   = 1 << 1
	maxDatagram  = 65507
	helloBackoff = 150 * time.Millisecond

	// maxHints bounds the address hints per datagram, both those we write
	// and those one received datagram may teach; the builder deduplicates
	// them in a fixed array instead of a map.
	maxHints = 8
	// maxMentioned bounds the mentioned-id accumulation per batch.
	maxMentioned = 64
	// hintLedgerSize is how many recently hinted ids a queue remembers: two
	// hint sections, 256 bytes for each of a node's dozens of peers. On
	// overflow the oldest entry goes and that id is hinted once more.
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
	// the deadline goroutine writes the dirty queues this long after the
	// first of them got a frame. A driven Host flushes at the end of every
	// turn and never gets there.
	flushInterval = 2 * time.Millisecond
	// idleTimeout frees a peer's batch buffer and hint ledger after this
	// long without traffic; the next Send revives it.
	idleTimeout = time.Minute
	// pendingTimeout ages out stashed frames whose peer address never
	// resolved; aged frames count as TxDropped.
	pendingTimeout = 10 * time.Second
	// peerTTL evicts address-book entries not refreshed by traffic for this
	// long, bounding book growth under churn.
	peerTTL = 10 * time.Minute
)

var envMagic = [2]byte{'V', 'P'}

// UDPConfig configures a UDP transport. Its limits and timers are the
// constants above.
type UDPConfig struct {
	// Metrics receives the transport's counters. Nil gets a private live
	// bundle (Counters() still works); pass one built from a registry to
	// expose the counters on /metrics.
	Metrics *telemetry.TransportMetrics
}

// bookEntry is one address-book record: where a node id lives and when
// traffic last confirmed it, for peerTTL eviction.
type bookEntry struct {
	addr netip.AddrPort
	seen time.Time
}

// pendingFrame is one frame stashed for a peer whose address is unknown,
// timestamped for pendingTimeout age-out, with the ids it mentions so they
// are still hinted when the stash flushes.
type pendingFrame struct {
	frame     []byte
	mentioned []simnet.NodeID
	at        time.Time
}

// UDP is a real socket transport: one datagram socket, per-peer batch
// buffers written by whoever calls Flush (the driver at the end of a turn,
// else the deadline goroutine), and an epidemic address book (see the
// envelope comment). Safe for concurrent use.
type UDP struct {
	conn *net.UDPConn
	// flushAfter is flushInterval except in tests, which hold frames back
	// or watch the deadline fire (see listenUDP).
	flushAfter time.Duration

	mu   sync.Mutex
	recv RecvFunc
	// local is replaced, never mutated (see setLocal), so the read loop
	// can check a whole datagram's frames against one snapshot.
	local   map[simnet.NodeID]bool
	book    map[simnet.NodeID]bookEntry
	queues  map[simnet.NodeID]*peerQueue
	pending map[simnet.NodeID][]pendingFrame
	closed  bool

	// dirtyMu guards the dirty list and orders the deadline timer with it:
	// the timer is armed exactly while the list is non-empty. It is a leaf
	// lock, taken under q.mu by the append that makes a queue dirty.
	dirtyMu  sync.Mutex
	dirty    []*peerQueue // queues holding unwritten frames, oldest first
	deadline *time.Timer

	// flushMu makes Flush the socket's one writer and guards its scratch.
	flushMu sync.Mutex
	taken   []*peerQueue // the dirty list being written
	spare   []byte       // swapped into the queue whose batch is taken
	out     []byte       // datagram build buffer
	// deadlineDatagrams counts what the deadline goroutine had to write; a
	// driven node keeps it at zero.
	deadlineDatagrams atomic.Uint64

	start time.Time // origin of the hint ledgers' clock
	done  chan struct{}
	wg    sync.WaitGroup

	// tel holds the transport's counters (see UDPConfig.Metrics); never
	// nil.
	tel *telemetry.TransportMetrics
}

// peerQueue is one peer's batch state. Senders append length-prefixed
// frames to buf under mu; Flush swaps buf with the writer's spare (so
// senders never wait on the socket), wraps the frames in envelopes and
// writes them. Lock order is u.mu before q.mu — the writer therefore never
// touches u.mu while holding q.mu.
type peerQueue struct {
	mu         sync.Mutex
	addr       netip.AddrPort
	buf        []byte    // length-prefixed frames awaiting Flush
	frames     int       // frame count in buf; the queue is dirty while > 0
	since      time.Time // when buf's first frame was queued
	mentioned  []simnet.NodeID
	lastActive time.Time
	dead       bool // set at teardown; senders seeing it re-create the queue

	// Writer-owned (under u.flushMu); mentioned is swapped with it at flush
	// time so steady-state batching allocates nothing.
	hints hintLedger
}

// hintLedger is what the writer knows about the hints it owes a peer: the
// ids the batch in hand mentions and a fixed table of the ids hinted lately.
// It dies with the queue; a peer back from idle starts afresh.
type hintLedger struct {
	peer      simnet.NodeID   // never hinted: it knows where it lives
	mentioned []simnet.NodeID // ids mentioned by the batch being written
	padded    bool            // the queue's first datagram went out, with book padding
	slots     [hintLedgerSize]hintSlot
}

// hintSlot records that id's address was sent at time at on the UDP.start
// clock; at 0 marks a free slot.
type hintSlot struct {
	id simnet.NodeID
	at time.Duration
}

// slot returns where to record id's next hint — its own slot, else a free
// one, else the oldest — or nil when the peer was sent id less than every
// ago.
func (h *hintLedger) slot(id simnet.NodeID, now, every time.Duration) *hintSlot {
	oldest := &h.slots[0]
	for i := range h.slots {
		s := &h.slots[i]
		if s.id == id && s.at != 0 {
			if now-s.at < every {
				return nil
			}
			return s
		}
		if s.at < oldest.at {
			oldest = s
		}
	}
	return oldest
}

// ListenUDP opens a UDP transport on addr (e.g. "127.0.0.1:0").
func ListenUDP(addr string, cfg UDPConfig) (*UDP, error) {
	return listenUDP(addr, cfg, flushInterval)
}

// listenUDP is ListenUDP with the deadline flush flushAfter instead of
// flushInterval after the first unflushed frame.
func listenUDP(addr string, cfg UDPConfig, flushAfter time.Duration) (*UDP, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewTransportMetrics(nil)
	}
	u := &UDP{
		conn:       conn,
		flushAfter: flushAfter,
		tel:        cfg.Metrics,
		local:      make(map[simnet.NodeID]bool),
		book:       make(map[simnet.NodeID]bookEntry),
		queues:     make(map[simnet.NodeID]*peerQueue),
		pending:    make(map[simnet.NodeID][]pendingFrame),
		start:      time.Now(),
		done:       make(chan struct{}),
	}
	u.deadline = time.NewTimer(flushAfter)
	u.deadline.Stop() // armed by the first frame queued
	u.wg.Add(3)
	go u.readLoop()
	go u.reapLoop()
	go u.deadlineLoop()
	return u, nil
}

// LocalAddr returns the bound socket address.
func (u *UDP) LocalAddr() *net.UDPAddr { return u.conn.LocalAddr().(*net.UDPAddr) }

// SetReceiver implements Transport.
func (u *UDP) SetReceiver(recv RecvFunc) {
	u.mu.Lock()
	u.recv = recv
	u.mu.Unlock()
}

// Attach implements Transport; attached ids are announced in every
// outgoing envelope's src list.
func (u *UDP) Attach(id simnet.NodeID) { u.setLocal(id, true) }

// Detach implements Transport.
func (u *UDP) Detach(id simnet.NodeID) { u.setLocal(id, false) }

// setLocal swaps in a copy of the hosted-id set with id added or removed.
func (u *UDP) setLocal(id simnet.NodeID, hosted bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.local = maps.Clone(u.local)
	if hosted {
		u.local[id] = true
	} else {
		delete(u.local, id)
	}
}

// SetPeer seeds the address book, e.g. with a bootstrap server's address
// from configuration. Normal operation learns everything else from
// traffic.
func (u *UDP) SetPeer(id simnet.NodeID, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	u.mu.Lock()
	u.learnLocked(id, unmapped(ua.AddrPort()))
	u.mu.Unlock()
	return nil
}

// PeerAddr reports the socket address currently on file for a node id, if
// any — seeded by SetPeer or learned from traffic.
func (u *UDP) PeerAddr(id simnet.NodeID) (*net.UDPAddr, bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	e, ok := u.book[id]
	if !ok {
		return nil, false
	}
	return net.UDPAddrFromAddrPort(e.addr), true
}

// Send implements Transport. Frames to peers with a known address are
// encoded straight into that peer's batch buffer (allocation-free when the
// buffer has capacity — a test pins this); frames to unknown peers are
// stashed until an address is learned (bounded, oldest dropped and
// counted).
func (u *UDP) Send(from, to simnet.NodeID, msg simnet.Message) error {
	for {
		u.mu.Lock()
		if u.closed {
			u.mu.Unlock()
			return ErrClosed
		}
		if _, known := u.book[to]; !known {
			err := u.stashLocked(from, to, msg)
			u.mu.Unlock()
			return err
		}
		q := u.queueLocked(to)
		maxFrame := maxDatagram - u.envOverheadLocked()
		u.mu.Unlock()

		q.mu.Lock()
		if q.dead {
			// The reaper won the race between our map lookup and the
			// append; the queue is gone from the map, so start over.
			q.mu.Unlock()
			continue
		}
		err := u.appendFrameLocked(q, from, to, msg, maxFrame)
		q.mu.Unlock()
		return err
	}
}

// stashLocked parks a frame for a peer with no known address. Overflow
// drops the oldest stash entry, which is congestion loss and must be
// visible: it counts as TxDropped and releases the TxPending gauge.
// Caller holds u.mu.
func (u *UDP) stashLocked(from, to simnet.NodeID, msg simnet.Message) error {
	frame, err := wire.Encode(from, to, msg)
	if err != nil {
		return err
	}
	stash := u.pending[to]
	if len(stash) >= pendingCap {
		copy(stash, stash[1:])
		stash = stash[:len(stash)-1]
		u.tel.TxDropped.Inc()
		u.tel.TxPending.Add(-1)
	}
	u.pending[to] = append(stash, pendingFrame{frame: frame, mentioned: appendMentionedIDs(nil, msg), at: time.Now()})
	u.tel.TxPending.Add(1)
	return nil
}

// queueLocked returns the peer's batch queue, creating it on first use.
// Caller holds u.mu and the peer must be in the book; a queue present in
// the map is never dead while u.mu is held, because teardown removes it
// from the map under the same lock.
func (u *UDP) queueLocked(to simnet.NodeID) *peerQueue {
	q := u.queues[to]
	if q == nil {
		q = &peerQueue{
			addr:       u.book[to].addr,
			lastActive: time.Now(),
			hints:      hintLedger{peer: to},
		}
		u.queues[to] = q
	}
	return q
}

// envOverheadLocked is the worst-case envelope size around a batch: header,
// local-id list, a full hint section, the frame count, and one frame length
// prefix. Caller holds u.mu.
func (u *UDP) envOverheadLocked() int {
	n := len(u.local)
	if n > 255 {
		n = 255
	}
	return 4 + 1 + 8*n + 1 + maxHints*(8+1+16+2) + 2 + 2
}

// appendFrameLocked encodes msg as a length-prefixed frame directly into
// the peer's batch buffer — no intermediate slice, so a warm buffer makes
// Send allocation-free. Frames that cannot fit a datagram or would
// overflow queueBytes are reverted and counted as drops. Caller holds
// q.mu.
func (u *UDP) appendFrameLocked(q *peerQueue, from, to simnet.NodeID, msg simnet.Message, maxFrame int) error {
	off := len(q.buf)
	q.buf = append(q.buf, 0, 0)
	var err error
	q.buf, err = wire.AppendEncode(q.buf, from, to, msg)
	if err != nil {
		q.buf = q.buf[:off]
		return err
	}
	flen := len(q.buf) - off - 2
	if flen > maxFrame || len(q.buf) > queueBytes {
		q.buf = q.buf[:off]
		u.tel.TxDropped.Inc()
		return nil
	}
	q.buf[off] = byte(flen >> 8)
	q.buf[off+1] = byte(flen)
	if len(q.mentioned) < maxMentioned {
		q.mentioned = appendMentionedIDs(q.mentioned, msg)
	}
	u.frameQueuedLocked(q)
	return nil
}

// appendRawLocked queues an already-encoded frame (the pending-stash flush
// path). Caller holds q.mu; maxFrame as in appendFrameLocked.
func (u *UDP) appendRawLocked(q *peerQueue, frame []byte, mentioned []simnet.NodeID, maxFrame int) {
	if len(frame) > maxFrame || len(q.buf)+2+len(frame) > queueBytes {
		u.tel.TxDropped.Inc()
		return
	}
	q.buf = append(q.buf, byte(len(frame)>>8), byte(len(frame)))
	q.buf = append(q.buf, frame...)
	if len(q.mentioned) < maxMentioned {
		q.mentioned = append(q.mentioned, mentioned...)
	}
	u.frameQueuedLocked(q)
}

// frameQueuedLocked books the frame just appended to q.buf. A batch's first
// frame puts the queue on the dirty list, and the list's first queue arms
// the deadline. Caller holds q.mu.
func (u *UDP) frameQueuedLocked(q *peerQueue) {
	q.lastActive = time.Now()
	if q.frames == 0 {
		q.since = q.lastActive
		u.dirtyMu.Lock()
		u.dirty = append(u.dirty, q)
		if len(u.dirty) == 1 {
			u.deadline.Reset(u.flushAfter)
		}
		u.dirtyMu.Unlock()
	}
	q.frames++
	u.tel.TxFrames.Inc()
	u.tel.QueueDepth.Add(1)
}

// Close implements Transport. A final Flush writes every frame whose Send
// returned before Close; what a Send racing Close still queues once the
// socket is gone counts as TxDropped.
func (u *UDP) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	close(u.done)
	u.mu.Unlock()
	u.Flush()
	err := u.conn.Close()
	u.wg.Wait()

	u.mu.Lock()
	for id, q := range u.queues {
		q.mu.Lock()
		q.dead = true
		u.tel.TxDropped.Add(uint64(q.frames))
		u.tel.QueueDepth.Add(-int64(q.frames))
		q.buf, q.frames = nil, 0
		q.mu.Unlock()
		delete(u.queues, id)
	}
	u.mu.Unlock()
	return err
}

// Hello sends an empty ack-requesting envelope to a raw socket address,
// announcing our local ids and soliciting the peer's. It returns the
// socket write error, if any, so callers like Resolve can distinguish "no
// answer yet" from "cannot even transmit".
func (u *UDP) Hello(addr *net.UDPAddr) error {
	u.mu.Lock()
	dgram := u.appendEnvelopeLocked(make([]byte, 0, 512), flagAckReq, nil, 0, nil)
	closed := u.closed
	u.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return u.writeDatagram(dgram, unmapped(addr.AddrPort()))
}

// writeDatagram puts one envelope on the wire and keeps the datagram and
// byte counters honest.
func (u *UDP) writeDatagram(dgram []byte, addr netip.AddrPort) error {
	if _, err := u.conn.WriteToUDPAddrPort(dgram, addr); err != nil {
		u.tel.TxErrors.Inc()
		return err
	}
	u.tel.TxDatagrams.Inc()
	u.tel.TxBytes.Add(uint64(len(dgram)))
	return nil
}

// Resolve learns which node id a socket address hosts, by exchanging
// hellos until the address book has an entry for it or the timeout
// expires. Used at join time: configuration supplies the bootstrap
// server's address, Resolve discovers its node id. When the address hosts
// several attached ids (a multi-node process), the lowest id wins, so
// every joiner resolves the same deterministic identity.
//
// Hellos are paced by jittered exponential backoff rather than a fixed
// interval, so a fleet of nodes pointed at one bootstrap address does not
// hammer it in lockstep while it is down. Failure is always a
// *ResolveError: Timeout set when the peer simply never answered, Err set
// when the last transmission itself failed (bad address, closed socket) —
// the two cases operators handle differently (see IsResolveTimeout).
func (u *UDP) Resolve(addr string, timeout time.Duration) (simnet.NodeID, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return 0, &ResolveError{Addr: addr, Err: err}
	}
	want := unmapped(ua.AddrPort())
	bo := Backoff{Base: helloBackoff, Max: 2 * time.Second, Jitter: 0.5}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	deadline := time.Now().Add(timeout)
	var lastErr error
	for attempt := 0; ; attempt++ {
		u.mu.Lock()
		best, found := simnet.NodeID(0), false
		for id, e := range u.book {
			if e.addr == want && (!found || id < best) {
				best, found = id, true
			}
		}
		u.mu.Unlock()
		if found {
			return best, nil
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			if lastErr != nil {
				return 0, &ResolveError{Addr: addr, Err: lastErr}
			}
			return 0, &ResolveError{Addr: addr, Timeout: true}
		}
		if err := u.Hello(ua); err != nil {
			if errors.Is(err, ErrClosed) {
				return 0, &ResolveError{Addr: addr, Err: ErrClosed}
			}
			lastErr = err
		} else {
			lastErr = nil
		}
		wait := bo.Delay(attempt, rng)
		if wait > remaining {
			wait = remaining
		}
		select {
		case <-u.done:
			return 0, &ResolveError{Addr: addr, Err: ErrClosed}
		case <-time.After(wait):
		}
	}
}

// UDPCounters is a snapshot of a UDP transport's counters.
type UDPCounters struct {
	TxFrames     uint64
	TxDatagrams  uint64
	TxBytes      uint64
	TxDropped    uint64
	TxPending    uint64
	TxErrors     uint64
	RxDatagrams  uint64
	RxBytes      uint64
	RxFrames     uint64
	RxErrors     uint64
	RxUnroutable uint64
	KnownPeers   int
	Queues       int // live per-peer batch buffers
	Goroutines   int // sender goroutines the transport owns: the deadline goroutine while open
}

// Counters returns a snapshot of the transport's counters.
func (u *UDP) Counters() UDPCounters {
	u.mu.Lock()
	peers, queues, senders := len(u.book), len(u.queues), 1
	if u.closed {
		senders = 0
	}
	u.mu.Unlock()
	return UDPCounters{
		TxFrames:     u.tel.TxFrames.Value(),
		TxDatagrams:  u.tel.TxDatagrams.Value(),
		TxBytes:      u.tel.TxBytes.Value(),
		TxDropped:    u.tel.TxDropped.Value(),
		TxPending:    uint64(u.tel.TxPending.Value()),
		TxErrors:     u.tel.TxErrors.Value(),
		RxDatagrams:  u.tel.RxDatagrams.Value(),
		RxBytes:      u.tel.RxBytes.Value(),
		RxFrames:     u.tel.RxFrames.Value(),
		RxErrors:     u.tel.RxErrors.Value(),
		RxUnroutable: u.tel.RxUnroutable.Value(),
		KnownPeers:   peers,
		Queues:       queues,
		Goroutines:   senders,
	}
}

// Flush implements Transport: it writes the batch of every queue on the
// dirty list, one datagram per peer unless a batch outgrew batchBytes.
// Flushes are serialised, so frames to one peer leave in Send order, and when
// Flush returns every frame whose Send returned before the call has been
// handed to the socket. With nothing dirty it costs two uncontended locks.
func (u *UDP) Flush() { u.flush() }

// flush is Flush reporting how many datagrams it wrote.
func (u *UDP) flush() (datagrams int) {
	u.flushMu.Lock()
	defer u.flushMu.Unlock()
	u.dirtyMu.Lock()
	u.taken, u.dirty = u.dirty, u.taken[:0]
	if len(u.taken) > 0 {
		u.deadline.Stop()
	}
	u.dirtyMu.Unlock()
	for i, q := range u.taken {
		u.taken[i] = nil
		// Swap buffers, so the socket write happens outside q.mu and
		// steady state reuses them.
		q.mu.Lock()
		data, n, since, addr := q.buf, q.frames, q.since, q.addr
		q.buf, q.frames = u.spare[:0], 0
		q.mentioned, q.hints.mentioned = q.hints.mentioned[:0], q.mentioned
		q.mu.Unlock()
		datagrams += u.writeBatch(q, data, n, since, addr)
		u.spare = data
	}
	return datagrams
}

// deadlineLoop writes what nobody flushed: senders without a driver (the
// chaos wrapper's delayed sends, Resolve, tests) and a driver stuck in a
// turn longer than flushInterval.
func (u *UDP) deadlineLoop() {
	defer u.wg.Done()
	for {
		select {
		case <-u.done:
			return
		case <-u.deadline.C:
			u.deadlineDatagrams.Add(uint64(u.flush()))
		}
	}
}

// writeBatch wraps a batch of nFrames length-prefixed frames, the first
// queued at since, into one or more envelopes — normally exactly one; more
// only when the batch outgrew batchBytes — and writes them. Caller holds
// u.flushMu; u.mu is taken briefly per envelope.
func (u *UDP) writeBatch(q *peerQueue, data []byte, nFrames int, since time.Time, addr netip.AddrPort) (datagrams int) {
	for off := 0; off < len(data); datagrams++ {
		start, n := off, 0
		for off < len(data) {
			flen := int(data[off])<<8 | int(data[off+1])
			next := off + 2 + flen
			if n > 0 && next-start > batchBytes {
				break
			}
			off = next
			n++
		}
		u.mu.Lock()
		u.out = u.appendEnvelopeLocked(u.out[:0], flagFrame, data[start:off], n, &q.hints)
		u.mu.Unlock()
		u.writeDatagram(u.out, addr) //nolint:errcheck // accounted inside
		u.tel.FlushWait.Observe(time.Since(since).Seconds())
	}
	u.tel.QueueDepth.Add(-int64(nFrames))
	return datagrams
}

// learnLocked records id → addr, refreshes the entry's liveness, retargets
// the peer's queue, and flushes any frames stashed while the address was
// unknown. Caller holds u.mu.
func (u *UDP) learnLocked(id simnet.NodeID, addr netip.AddrPort) {
	now := time.Now()
	if e, ok := u.book[id]; ok && e.addr == addr {
		e.seen = now
		u.book[id] = e
	} else {
		u.book[id] = bookEntry{addr: addr, seen: now}
		u.tel.KnownPeers.Set(int64(len(u.book)))
		if q := u.queues[id]; q != nil {
			q.mu.Lock()
			q.addr = addr
			q.mu.Unlock()
		}
	}
	if stash := u.pending[id]; len(stash) > 0 {
		delete(u.pending, id)
		q := u.queueLocked(id)
		maxFrame := maxDatagram - u.envOverheadLocked()
		q.mu.Lock()
		for _, pf := range stash {
			u.appendRawLocked(q, pf.frame, pf.mentioned, maxFrame)
		}
		q.mu.Unlock()
		u.tel.TxPending.Add(-int64(len(stash)))
	}
}

// appendEnvelopeLocked appends a complete datagram envelope around a batch
// of length-prefixed frames (or none, for hellos and acks), piggybacking
// our local ids and up to maxHints address hints: the ids mentioned inside
// the batched messages that h says the peer is owed (so a node receiving a
// view exchange can reach the peers it was just told about), and arbitrary
// book entries only on hellos, acks (no queue: h is nil) and a queue's first
// datagram, where Go's random map order spreads the book to a newcomer.
// Allocation-free when dst has capacity — hint dedup uses a fixed array, not
// a map. Caller holds u.mu and, if h is not nil, u.flushMu.
func (u *UDP) appendEnvelopeLocked(dst []byte, flags byte, frames []byte, nFrames int, h *hintLedger) []byte {
	if nFrames > 0 {
		flags |= flagFrame
	} else {
		flags &^= flagFrame
	}
	dst = append(dst, envMagic[0], envMagic[1], envVersion, flags)

	nSrcAt := len(dst)
	dst = append(dst, 0)
	n := 0
	for id := range u.local {
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
	pad := nFrames == 0 || h != nil && !h.padded
	if h != nil {
		h.padded = true
		now := time.Since(u.start)
		for _, id := range h.mentioned {
			if nh >= maxHints {
				break
			}
			if s := h.slot(id, now, pendingTimeout/2); id != h.peer && s != nil {
				was := nh
				dst, nh, budget = u.appendHintLocked(dst, id, &added, nh, budget)
				if nh > was {
					*s = hintSlot{id: id, at: now}
				}
			}
		}
	}
	if pad {
		for id := range u.book {
			if nh >= maxHints {
				break
			}
			if h == nil || id != h.peer {
				dst, nh, budget = u.appendHintLocked(dst, id, &added, nh, budget)
			}
		}
	}
	dst[nHintsAt] = byte(nh)
	u.tel.TxHints.Add(uint64(nh))

	dst = append(dst, byte(nFrames>>8), byte(nFrames))
	return append(dst, frames...)
}

// appendHintLocked appends one address hint if the id is hintable (known,
// not local, not already added, fits the budget). Caller holds u.mu.
func (u *UDP) appendHintLocked(dst []byte, id simnet.NodeID, added *[maxHints]simnet.NodeID, nh, budget int) ([]byte, int, int) {
	if u.local[id] {
		return dst, nh, budget
	}
	for i := 0; i < nh; i++ {
		if added[i] == id {
			return dst, nh, budget
		}
	}
	e, ok := u.book[id]
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

// reapLoop ages out pending stashes whose peer never resolved, evicts
// address-book entries not refreshed within peerTTL and frees the queues of
// peers idle for idleTimeout, so churned peers do not pin memory forever.
// It runs four times per pendingTimeout, the shortest of the three.
func (u *UDP) reapLoop() {
	defer u.wg.Done()
	ticker := time.NewTicker(pendingTimeout / 4)
	defer ticker.Stop()
	for {
		select {
		case <-u.done:
			return
		case now := <-ticker.C:
			u.reapOnce(now)
		}
	}
}

// reapOnce applies pendingTimeout, peerTTL and idleTimeout as of now.
func (u *UDP) reapOnce(now time.Time) {
	u.mu.Lock()
	defer u.mu.Unlock()
	for id, q := range u.queues {
		// A sender that looked q up before this sees dead and starts over
		// (see Send), so its frame is neither lost nor written twice.
		q.mu.Lock()
		if q.frames == 0 && now.Sub(q.lastActive) > idleTimeout {
			q.dead = true
			delete(u.queues, id)
		}
		q.mu.Unlock()
	}
	for id, stash := range u.pending {
		// Stashes are append-ordered, so expired entries form a prefix.
		cut := 0
		for cut < len(stash) && now.Sub(stash[cut].at) > pendingTimeout {
			cut++
		}
		if cut == 0 {
			continue
		}
		u.tel.TxDropped.Add(uint64(cut))
		u.tel.TxPending.Add(-int64(cut))
		if cut == len(stash) {
			delete(u.pending, id)
		} else {
			u.pending[id] = append(stash[:0], stash[cut:]...)
		}
	}
	evicted := false
	for id, e := range u.book {
		if now.Sub(e.seen) > peerTTL {
			delete(u.book, id)
			evicted = true
		}
	}
	if evicted {
		u.tel.KnownPeers.Set(int64(len(u.book)))
	}
}

// readLoop receives datagrams and dispatches their contents.
func (u *UDP) readLoop() {
	defer u.wg.Done()
	buf := make([]byte, maxDatagram)
	for {
		n, src, err := u.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			select {
			case <-u.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			u.tel.RxErrors.Inc()
			continue
		}
		u.tel.RxBytes.Add(uint64(n))
		u.handleDatagram(buf[:n], unmapped(src))
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
// last byte and splits it into its sections. It is pure: no locks, no book
// mutation, no allocation; FuzzEnvelope holds it to that.
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

// handleDatagram applies one envelope: learn addresses, answer acks,
// deliver the frames. Steady-state datagrams from known peers are handled
// without allocating: addresses are values, read off the socket as such.
func (u *UDP) handleDatagram(b []byte, src netip.AddrPort) {
	env, err := parseEnvelope(b)
	if err != nil {
		u.tel.RxErrors.Inc()
		return
	}
	now := time.Now()
	u.mu.Lock()
	for ids := env.src; len(ids) > 0; ids = ids[8:] {
		id := simnet.NodeID(takeU64(ids))
		if e, ok := u.book[id]; ok && e.addr == src {
			e.seen = now // refresh in place: no gauge, no stash lookup
			u.book[id] = e
			continue
		}
		u.learnLocked(id, src)
	}
	// Hints are second-hand, so a datagram may teach only as many as an
	// honest sender can write, and never overrides what the source address
	// of a peer's own datagram taught us.
	hints := env.hints
	for i := 0; i < env.nHints && i < maxHints; i++ {
		id, ipLen := simnet.NodeID(takeU64(hints)), int(hints[8])
		if _, ok := u.book[id]; !ok {
			ip, _ := netip.AddrFromSlice(hints[9 : 9+ipLen]) // 4 or 16 bytes, per parseEnvelope
			port := uint16(hints[9+ipLen])<<8 | uint16(hints[9+ipLen+1])
			u.learnLocked(id, netip.AddrPortFrom(ip.Unmap(), port))
		}
		hints = hints[9+ipLen+2:]
	}
	var ack []byte
	if env.flags&flagAckReq != 0 && !u.closed {
		ack = u.appendEnvelopeLocked(make([]byte, 0, 512), 0, nil, 0, nil)
	}
	recv, hosted := u.recv, u.local
	u.mu.Unlock()
	u.tel.RxDatagrams.Inc()
	if env.nHints > maxHints {
		u.tel.RxErrors.Inc()
	}
	if ack != nil {
		u.writeDatagram(ack, src) //nolint:errcheck // accounted inside
	}

	for frames := env.frames; len(frames) > 0; {
		flen := int(frames[0])<<8 | int(frames[1])
		u.dispatchFrame(frames[2:2+flen], recv, hosted)
		frames = frames[2+flen:]
	}
}

// dispatchFrame decodes one wire frame and hands it to the receiver if the
// destination id is in hosted, the datagram's snapshot of u.local.
func (u *UDP) dispatchFrame(frame []byte, recv RecvFunc, hosted map[simnet.NodeID]bool) {
	from, to, msg, err := wire.Decode(frame)
	if err != nil {
		u.tel.RxErrors.Inc()
		return
	}
	if !hosted[to] {
		u.tel.RxUnroutable.Inc()
		return
	}
	u.tel.RxFrames.Inc()
	if recv != nil {
		recv(from, to, msg)
	}
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
