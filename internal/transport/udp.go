package transport

import (
	"errors"
	"maps"
	"math/rand"
	"net"
	"sync"
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
// The per-peer send queue coalesces frames and flushes them as one datagram
// when the batch reaches BatchBytes or FlushInterval elapses, whichever
// comes first.
//
// Receivers learn "these ids live at the datagram's source address" from
// the src list, and third-party addresses from the hints, so any node
// mentioned in a view exchange or join reply becomes routable without a
// directory service. Hints are sent only when the peer can need them: a
// frame-carrying datagram hints the ids its messages mention, each id at
// most once per PendingTimeout/2 per peer (see hintLedger). The interval is
// tied to PendingTimeout because that is how long the receiver keeps frames
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

	// maxHintCap caps MaxHints, so the builder deduplicates hints in a fixed
	// array instead of a map, and the hints learned from one datagram.
	maxHintCap = 16
	// maxMentioned bounds the mentioned-id accumulation per batch.
	maxMentioned = 64
	// hintLedgerSize is how many recently hinted ids a queue remembers: two
	// default hint sections, 256 bytes for each of a node's dozens of peers.
	// On overflow the oldest entry goes and that id is hinted once more.
	hintLedgerSize = 16
)

var envMagic = [2]byte{'V', 'P'}

// UDPConfig tunes a UDP transport; zero values get defaults.
type UDPConfig struct {
	// QueueBytes bounds each per-peer batch buffer (default 256 KiB);
	// overflow drops the newest frame, mirroring congestion loss.
	QueueBytes int
	// PendingCap bounds frames stashed for a peer whose address is still
	// unknown (default 16); overflow drops the oldest stash entry.
	PendingCap int
	// MaxHints bounds address hints per datagram (default 8, max 16).
	MaxHints int
	// BatchBytes is the target datagram payload: a peer's batch flushes as
	// soon as it holds this many frame bytes (default 1400, the common
	// ethernet-safe size; capped at 60000 so the envelope always fits).
	BatchBytes int
	// FlushInterval bounds how long a queued frame waits for company
	// before the batch is flushed anyway (default 2ms).
	FlushInterval time.Duration
	// IdleTimeout tears down a peer's flusher goroutine and batch buffer
	// after this long without traffic (default 1 minute).
	IdleTimeout time.Duration
	// PendingTimeout ages out stashed frames whose peer address never
	// resolved (default 10s); aged frames count as TxDropped.
	PendingTimeout time.Duration
	// PeerTTL evicts address-book entries not refreshed by traffic for
	// this long (default 10 minutes), bounding book growth under churn.
	PeerTTL time.Duration
	// Metrics receives the transport's counters. Nil gets a private live
	// bundle (Counters() still works); pass one built from a registry to
	// expose the counters on /metrics.
	Metrics *telemetry.TransportMetrics
}

func (c *UDPConfig) fill() {
	if c.QueueBytes <= 0 {
		c.QueueBytes = 256 << 10
	}
	if c.PendingCap <= 0 {
		c.PendingCap = 16
	}
	if c.MaxHints <= 0 {
		c.MaxHints = 8
	}
	if c.MaxHints > maxHintCap {
		c.MaxHints = maxHintCap
	}
	if c.BatchBytes <= 0 {
		c.BatchBytes = 1400
	}
	if c.BatchBytes > 60000 {
		c.BatchBytes = 60000
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 2 * time.Millisecond
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = time.Minute
	}
	if c.PendingTimeout <= 0 {
		c.PendingTimeout = 10 * time.Second
	}
	if c.PeerTTL <= 0 {
		c.PeerTTL = 10 * time.Minute
	}
	if c.Metrics == nil {
		c.Metrics = telemetry.NewTransportMetrics(nil)
	}
}

// bookEntry is one address-book record: where a node id lives and when
// traffic last confirmed it, for PeerTTL eviction.
type bookEntry struct {
	addr *net.UDPAddr
	seen time.Time
}

// pendingFrame is one frame stashed for a peer whose address is unknown,
// timestamped for PendingTimeout age-out, with the ids it mentions so they
// are still hinted when the stash flushes.
type pendingFrame struct {
	frame     []byte
	mentioned []simnet.NodeID
	at        time.Time
}

// UDP is a real socket transport: one datagram socket, per-peer batch
// buffers drained by per-peer flusher goroutines (created on demand, torn
// down when idle), and an epidemic address book (see the envelope
// comment). Safe for concurrent use.
type UDP struct {
	conn *net.UDPConn
	cfg  UDPConfig

	mu   sync.Mutex
	recv RecvFunc
	// local is replaced, never mutated (see setLocal), so the read loop
	// can check a whole datagram's frames against one snapshot.
	local   map[simnet.NodeID]bool
	book    map[simnet.NodeID]bookEntry
	queues  map[simnet.NodeID]*peerQueue
	pending map[simnet.NodeID][]pendingFrame
	closed  bool

	start time.Time // origin of the hint ledgers' clock
	done  chan struct{}
	wg    sync.WaitGroup

	// tel holds the transport's counters (see UDPConfig.Metrics); always
	// non-nil after fill().
	tel *telemetry.TransportMetrics
}

// peerQueue is one peer's batch state. Senders append length-prefixed
// frames to buf under mu and kick the flusher; the flusher swaps buf with
// its spare (so senders never wait on the socket), wraps the frames in
// envelopes and writes them. Lock order is u.mu before q.mu — the flusher
// therefore never touches u.mu while holding q.mu.
type peerQueue struct {
	kick chan struct{} // cap 1; wakes the flusher after an append

	mu         sync.Mutex
	addr       *net.UDPAddr
	buf        []byte // length-prefixed frames awaiting flush
	frames     int    // frame count in buf
	mentioned  []simnet.NodeID
	lastActive time.Time
	dead       bool // set at teardown; senders seeing it re-create the queue

	// Flusher-owned scratch, swapped with buf/mentioned at flush time so
	// steady-state batching allocates nothing.
	spare []byte
	hints hintLedger
	out   []byte // datagram build buffer
}

// hintLedger is what a peer's flusher knows about the hints it owes that
// peer: the ids the batch in hand mentions and a fixed table of the ids
// hinted lately. It dies with the queue; a peer back from idle starts afresh.
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
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	cfg.fill()
	u := &UDP{
		conn:    conn,
		cfg:     cfg,
		tel:     cfg.Metrics,
		local:   make(map[simnet.NodeID]bool),
		book:    make(map[simnet.NodeID]bookEntry),
		queues:  make(map[simnet.NodeID]*peerQueue),
		pending: make(map[simnet.NodeID][]pendingFrame),
		start:   time.Now(),
		done:    make(chan struct{}),
	}
	u.wg.Add(2)
	go u.readLoop()
	go u.reapLoop()
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
	u.learnLocked(id, ua)
	u.mu.Unlock()
	return nil
}

// PeerAddr reports the socket address currently on file for a node id, if
// any — seeded by SetPeer or learned from traffic.
func (u *UDP) PeerAddr(id simnet.NodeID) (*net.UDPAddr, bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	e, ok := u.book[id]
	return e.addr, ok
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
			// The idle reaper won the race between our map lookup and the
			// append; the queue is gone from the map, so start over.
			q.mu.Unlock()
			continue
		}
		err := u.appendFrameLocked(q, from, to, msg, maxFrame)
		q.mu.Unlock()
		if err != nil {
			return err
		}
		q.kickNow()
		return nil
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
	if len(stash) >= u.cfg.PendingCap {
		copy(stash, stash[1:])
		stash = stash[:len(stash)-1]
		u.tel.TxDropped.Inc()
		u.tel.TxPending.Add(-1)
	}
	u.pending[to] = append(stash, pendingFrame{frame: frame, mentioned: appendMentionedIDs(nil, msg), at: time.Now()})
	u.tel.TxPending.Add(1)
	return nil
}

// queueLocked returns the peer's batch queue, creating it (and its flusher
// goroutine) on first use. Caller holds u.mu and the peer must be in the
// book; a queue present in the map is never dead while u.mu is held,
// because teardown removes it from the map under the same lock.
func (u *UDP) queueLocked(to simnet.NodeID) *peerQueue {
	q := u.queues[to]
	if q == nil {
		e := u.book[to]
		q = &peerQueue{
			kick:       make(chan struct{}, 1),
			addr:       e.addr,
			lastActive: time.Now(),
			hints:      hintLedger{peer: to},
		}
		u.queues[to] = q
		u.wg.Add(1)
		go u.flushLoop(to, q)
	}
	return q
}

// kickNow wakes the peer's flusher without blocking; a pending kick
// already covers us.
func (q *peerQueue) kickNow() {
	select {
	case q.kick <- struct{}{}:
	default:
	}
}

// envOverheadLocked is the worst-case envelope size around a batch: header,
// local-id list, a full hint section, the frame count, and one frame length
// prefix. Caller holds u.mu.
func (u *UDP) envOverheadLocked() int {
	n := len(u.local)
	if n > 255 {
		n = 255
	}
	return 4 + 1 + 8*n + 1 + u.cfg.MaxHints*(8+1+16+2) + 2 + 2
}

// appendFrameLocked encodes msg as a length-prefixed frame directly into
// the peer's batch buffer — no intermediate slice, so a warm buffer makes
// Send allocation-free. Frames that cannot fit a datagram or would
// overflow QueueBytes are reverted and counted as drops. Caller holds
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
	if flen > maxFrame || len(q.buf) > u.cfg.QueueBytes {
		q.buf = q.buf[:off]
		u.tel.TxDropped.Inc()
		return nil
	}
	q.buf[off] = byte(flen >> 8)
	q.buf[off+1] = byte(flen)
	q.frames++
	q.lastActive = time.Now()
	if len(q.mentioned) < maxMentioned {
		q.mentioned = appendMentionedIDs(q.mentioned, msg)
	}
	u.tel.TxFrames.Inc()
	u.tel.QueueDepth.Add(1)
	return nil
}

// appendRawLocked queues an already-encoded frame (the pending-stash flush
// path). Caller holds q.mu; maxFrame as in appendFrameLocked.
func (u *UDP) appendRawLocked(q *peerQueue, frame []byte, mentioned []simnet.NodeID, maxFrame int) {
	if len(frame) > maxFrame || len(q.buf)+2+len(frame) > u.cfg.QueueBytes {
		u.tel.TxDropped.Inc()
		return
	}
	q.buf = append(q.buf, byte(len(frame)>>8), byte(len(frame)))
	q.buf = append(q.buf, frame...)
	q.frames++
	q.lastActive = time.Now()
	if len(q.mentioned) < maxMentioned {
		q.mentioned = append(q.mentioned, mentioned...)
	}
	u.tel.TxFrames.Inc()
	u.tel.QueueDepth.Add(1)
}

// Close implements Transport.
func (u *UDP) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	close(u.done)
	u.mu.Unlock()
	err := u.conn.Close()
	u.wg.Wait()
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
	return u.writeDatagram(dgram, addr)
}

// writeDatagram puts one envelope on the wire and keeps the datagram and
// byte counters honest.
func (u *UDP) writeDatagram(dgram []byte, addr *net.UDPAddr) error {
	if _, err := u.conn.WriteToUDP(dgram, addr); err != nil {
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
	bo := Backoff{Base: helloBackoff, Max: 2 * time.Second, Jitter: 0.5}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	deadline := time.Now().Add(timeout)
	var lastErr error
	for attempt := 0; ; attempt++ {
		u.mu.Lock()
		best, found := simnet.NodeID(0), false
		for id, e := range u.book {
			if e.addr.IP.Equal(ua.IP) && e.addr.Port == ua.Port && (!found || id < best) {
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
	Goroutines   int // live per-peer flusher goroutines
}

// Counters returns a snapshot of the transport's counters.
func (u *UDP) Counters() UDPCounters {
	u.mu.Lock()
	peers := len(u.book)
	flushers := len(u.queues)
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
		Goroutines:   flushers,
	}
}

// flushLoop drains one peer's batch buffer onto the socket: flush when the
// batch reaches BatchBytes, when the oldest queued frame has waited
// FlushInterval, and tear itself down after IdleTimeout without traffic —
// peer churn must not accumulate goroutines (a test pins this).
func (u *UDP) flushLoop(to simnet.NodeID, q *peerQueue) {
	defer u.wg.Done()
	timer := time.NewTimer(u.cfg.IdleTimeout)
	defer timer.Stop()
	var flushAt time.Time // deadline of the oldest buffered frame; zero when empty
	for {
		select {
		case <-u.done:
			return
		case <-q.kick:
		case <-timer.C:
		}
		now := time.Now()

		q.mu.Lock()
		if len(q.buf) > 0 && flushAt.IsZero() {
			flushAt = now.Add(u.cfg.FlushInterval)
		}
		if len(q.buf) >= u.cfg.BatchBytes || (!flushAt.IsZero() && !now.Before(flushAt)) {
			data, nFrames, addr := q.takeLocked()
			q.mu.Unlock()
			u.writeBatch(q, data, nFrames, addr)
			flushAt = time.Time{}
			now = time.Now()
			q.mu.Lock()
			if len(q.buf) > 0 { // frames raced in during the flush
				flushAt = now.Add(u.cfg.FlushInterval)
			}
		}
		idleAt := q.lastActive.Add(u.cfg.IdleTimeout)
		q.mu.Unlock()

		if flushAt.IsZero() && !now.Before(idleAt) {
			// Idle: tear down, unless a send raced in. Lock order is
			// u.mu → q.mu; once dead and out of the map, Send re-creates.
			u.mu.Lock()
			q.mu.Lock()
			if len(q.buf) == 0 {
				q.dead = true
				if u.queues[to] == q {
					delete(u.queues, to)
				}
				q.mu.Unlock()
				u.mu.Unlock()
				return
			}
			flushAt = time.Now().Add(u.cfg.FlushInterval)
			idleAt = q.lastActive.Add(u.cfg.IdleTimeout)
			q.mu.Unlock()
			u.mu.Unlock()
		}

		next := idleAt
		if !flushAt.IsZero() && flushAt.Before(next) {
			next = flushAt
		}
		resetTimer(timer, time.Until(next))
	}
}

// takeLocked hands the batch to the flusher by swapping buffers, so the
// socket write happens outside q.mu and steady state reuses both buffers.
// Caller holds q.mu.
func (q *peerQueue) takeLocked() (data []byte, nFrames int, addr *net.UDPAddr) {
	data, q.buf, q.spare = q.buf, q.spare[:0], q.buf
	q.mentioned, q.hints.mentioned = q.hints.mentioned[:0], q.mentioned
	nFrames = q.frames
	q.frames = 0
	return data, nFrames, q.addr
}

// writeBatch wraps a batch of length-prefixed frames into one or more
// envelopes — normally exactly one; more only when senders outran the
// flusher — and writes them. Runs on the flusher goroutine with no locks
// held except briefly u.mu per envelope.
func (u *UDP) writeBatch(q *peerQueue, data []byte, nFrames int, addr *net.UDPAddr) {
	off := 0
	for off < len(data) {
		start, n := off, 0
		for off < len(data) {
			flen := int(data[off])<<8 | int(data[off+1])
			next := off + 2 + flen
			if n > 0 && next-start > u.cfg.BatchBytes {
				break
			}
			off = next
			n++
		}
		u.mu.Lock()
		q.out = u.appendEnvelopeLocked(q.out[:0], flagFrame, data[start:off], n, &q.hints)
		u.mu.Unlock()
		u.writeDatagram(q.out, addr) //nolint:errcheck // accounted inside
		u.tel.QueueDepth.Add(-int64(n))
		nFrames -= n
	}
	if nFrames > 0 { // defensive: never leak gauge weight
		u.tel.QueueDepth.Add(-int64(nFrames))
	}
}

// learnLocked records id → addr, refreshes the entry's liveness, retargets
// the peer's queue, and flushes any frames stashed while the address was
// unknown. Caller holds u.mu.
func (u *UDP) learnLocked(id simnet.NodeID, addr *net.UDPAddr) {
	now := time.Now()
	if e, ok := u.book[id]; ok && udpAddrEqual(e.addr, addr) {
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
		q.kickNow()
	}
}

// appendEnvelopeLocked appends a complete datagram envelope around a batch
// of length-prefixed frames (or none, for hellos and acks), piggybacking
// our local ids and up to MaxHints address hints: the ids mentioned inside
// the batched messages that h says the peer is owed (so a node receiving a
// view exchange can reach the peers it was just told about), and arbitrary
// book entries only on hellos, acks (no queue: h is nil) and a queue's first
// datagram, where Go's random map order spreads the book to a newcomer.
// Allocation-free when dst has capacity — hint dedup uses a fixed array, not
// a map. Caller holds u.mu and, if h is not nil, is h's flusher.
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
	var added [maxHintCap]simnet.NodeID
	nh := 0
	pad := nFrames == 0 || h != nil && !h.padded
	if h != nil {
		h.padded = true
		now := time.Since(u.start)
		for _, id := range h.mentioned {
			if nh >= u.cfg.MaxHints {
				break
			}
			if s := h.slot(id, now, u.cfg.PendingTimeout/2); id != h.peer && s != nil {
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
			if nh >= u.cfg.MaxHints {
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
func (u *UDP) appendHintLocked(dst []byte, id simnet.NodeID, added *[maxHintCap]simnet.NodeID, nh, budget int) ([]byte, int, int) {
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
	ip := e.addr.IP
	if v4 := ip.To4(); v4 != nil {
		ip = v4
	}
	sz := 8 + 1 + len(ip) + 2
	if sz > budget {
		return dst, nh, budget
	}
	added[nh] = id
	dst = appendU64(dst, uint64(id))
	dst = append(dst, byte(len(ip)))
	dst = append(dst, ip...)
	dst = append(dst, byte(e.addr.Port>>8), byte(e.addr.Port))
	return dst, nh + 1, budget - sz
}

// reapLoop ages out pending stashes whose peer never resolved and evicts
// address-book entries not refreshed within PeerTTL, so churned peers do
// not pin memory forever. (Their flusher goroutines tear themselves down
// via flushLoop's IdleTimeout.)
func (u *UDP) reapLoop() {
	defer u.wg.Done()
	interval := u.cfg.PendingTimeout / 4
	if interval > u.cfg.PeerTTL/4 {
		interval = u.cfg.PeerTTL / 4
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > 5*time.Second {
		interval = 5 * time.Second
	}
	ticker := time.NewTicker(interval)
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

// reapOnce applies PendingTimeout and PeerTTL as of now.
func (u *UDP) reapOnce(now time.Time) {
	u.mu.Lock()
	defer u.mu.Unlock()
	for id, stash := range u.pending {
		// Stashes are append-ordered, so expired entries form a prefix.
		cut := 0
		for cut < len(stash) && now.Sub(stash[cut].at) > u.cfg.PendingTimeout {
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
		if now.Sub(e.seen) > u.cfg.PeerTTL {
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
		n, src, err := u.conn.ReadFromUDP(buf)
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
		u.handleDatagram(buf[:n], src)
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
// without allocating — address copies happen only when the book actually
// changes.
func (u *UDP) handleDatagram(b []byte, src *net.UDPAddr) {
	env, err := parseEnvelope(b)
	if err != nil {
		u.tel.RxErrors.Inc()
		return
	}
	now := time.Now()
	u.mu.Lock()
	var srcCopy *net.UDPAddr
	for ids := env.src; len(ids) > 0; ids = ids[8:] {
		id := simnet.NodeID(takeU64(ids))
		if e, ok := u.book[id]; ok && udpAddrEqual(e.addr, src) {
			e.seen = now // refresh in place: no copy, no churn
			u.book[id] = e
			continue
		}
		if srcCopy == nil {
			srcCopy = copyUDPAddr(src)
		}
		u.learnLocked(id, srcCopy)
	}
	// Hints are second-hand, so a datagram may teach only as many as an
	// honest sender can write, and never overrides what the source address
	// of a peer's own datagram taught us.
	hints := env.hints
	for i := 0; i < env.nHints && i < maxHintCap; i++ {
		id, ipLen := simnet.NodeID(takeU64(hints)), int(hints[8])
		if _, ok := u.book[id]; !ok {
			ip := append(net.IP(nil), hints[9:9+ipLen]...)
			port := int(hints[9+ipLen])<<8 | int(hints[9+ipLen+1])
			u.learnLocked(id, &net.UDPAddr{IP: ip, Port: port})
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
	if env.nHints > maxHintCap {
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
	case sampling.ShuffleRequest:
		return appendSamplingIDs(dst, m.Subset)
	case sampling.ShuffleReply:
		return appendSamplingIDs(dst, m.Subset)
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

// udpAddrEqual reports address equality without normalising allocations.
func udpAddrEqual(a, b *net.UDPAddr) bool {
	return a != nil && b != nil && a.Port == b.Port && a.IP.Equal(b.IP) && a.Zone == b.Zone
}

// copyUDPAddr deep-copies a socket address so book entries never alias the
// read loop's reusable buffer.
func copyUDPAddr(a *net.UDPAddr) *net.UDPAddr {
	return &net.UDPAddr{IP: append(net.IP(nil), a.IP...), Port: a.Port, Zone: a.Zone}
}

// resetTimer re-arms a timer whose channel may or may not have fired.
func resetTimer(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	if d < 0 {
		d = 0
	}
	t.Reset(d)
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func takeU64(b []byte) uint64 {
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}
