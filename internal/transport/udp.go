package transport

import (
	"errors"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"time"

	"vitis/internal/simnet"
	"vitis/internal/telemetry"
)

// UDPConfig configures a UDP transport. Its limits and timers are the
// constants next to udpCore.
type UDPConfig struct {
	// Metrics receives the transport's counters. Nil gets a private live
	// bundle (Counters() still works); pass one built from a registry to
	// expose the counters on /metrics.
	Metrics *telemetry.TransportMetrics
}

// UDP is a real socket transport: a thin shell around udpCore, which holds
// the protocol state (see the envelope comment there). The shell owns the
// socket, a read loop and one timer goroutine that sleeps until the core's
// next deadline and calls tick. One mutex guards the core and serialises
// socket writes, so frames to one peer leave in Send order. Safe for
// concurrent use.
type UDP struct {
	conn  *net.UDPConn
	epoch time.Time // origin of the core's clock (see now)
	tel   *telemetry.TransportMetrics
	done  chan struct{}
	wg    sync.WaitGroup

	mu     sync.Mutex
	core   *udpCore
	recv   RecvFunc
	closed bool
	wr     datagramWriter // conn, or a test's tap
	timer  *time.Timer    // fires at armed
	armed  time.Duration
}

type datagramWriter interface { // the write half of the socket
	WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error)
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
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewTransportMetrics(nil)
	}
	u := &UDP{
		conn:  conn,
		epoch: time.Now(),
		tel:   cfg.Metrics,
		done:  make(chan struct{}),
		core:  newUDPCore(cfg.Metrics),
		wr:    conn,
	}
	u.armed = u.core.nextDeadline()
	u.timer = time.NewTimer(u.armed)
	u.wg.Add(2)
	go u.readLoop()
	go u.timerLoop()
	return u, nil
}

func (u *UDP) now() time.Duration { return time.Since(u.epoch) }

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

func (u *UDP) setLocal(id simnet.NodeID, hosted bool) {
	u.mu.Lock()
	u.core.setLocal(id, hosted)
	u.mu.Unlock()
}

// SetPeer seeds the address book, e.g. with a bootstrap server's address
// from configuration. Normal operation learns everything else from
// traffic. After Close it fails with ErrClosed.
func (u *UDP) SetPeer(id simnet.NodeID, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return ErrClosed
	}
	now := u.now()
	u.core.learn(id, unmapped(ua.AddrPort()), now)
	u.rearmLocked(now)
	return nil
}

// PeerAddr reports the socket address currently on file for a node id, if
// any — seeded by SetPeer or learned from traffic.
func (u *UDP) PeerAddr(id simnet.NodeID) (*net.UDPAddr, bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	e, ok := u.core.book[id]
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
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return ErrClosed
	}
	now := u.now()
	err := u.core.send(from, to, msg, now)
	u.rearmLocked(now)
	return err
}

// Flush implements Transport: it writes the batch of every queue on the
// dirty list, one datagram per peer unless a batch outgrew batchBytes. When
// Flush returns, every frame whose Send returned before the call has been
// handed to the socket.
func (u *UDP) Flush() {
	u.mu.Lock()
	defer u.mu.Unlock()
	now := u.now()
	u.writeLocked(u.core.flush(now))
	u.rearmLocked(now)
}

// Close implements Transport. A final flush writes every frame whose Send
// returned before Close; Sends and SetPeers after it fail with ErrClosed.
func (u *UDP) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	close(u.done)
	u.writeLocked(u.core.flush(u.now()))
	clear(u.core.queues)
	err := u.conn.Close()
	u.mu.Unlock()
	u.wg.Wait()
	return err
}

// Hello sends an empty ack-requesting envelope to a raw socket address,
// announcing our local ids and soliciting the peer's. It returns the
// socket write error, if any, so callers like Resolve can distinguish "no
// answer yet" from "cannot even transmit".
func (u *UDP) Hello(addr *net.UDPAddr) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return ErrClosed
	}
	return u.write(u.core.bare(flagAckReq, u.now()), unmapped(addr.AddrPort()))
}

// helloBackoff is the first pause between Resolve's hellos.
const helloBackoff = 150 * time.Millisecond

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
	bo := Backoff{Base: helloBackoff, Max: 2 * time.Second}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	deadline := time.Now().Add(timeout)
	var lastErr error
	for attempt := 0; ; attempt++ {
		u.mu.Lock()
		best, found := u.core.lowestAt(want)
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
		select {
		case <-u.done:
			return 0, &ResolveError{Addr: addr, Err: ErrClosed}
		case <-time.After(min(bo.Delay(attempt, rng), remaining)):
		}
	}
}

// rearmLocked points the timer at the core's next deadline if that moved.
// Caller holds u.mu.
func (u *UDP) rearmLocked(now time.Duration) {
	if d := u.core.nextDeadline(); d != u.armed && !u.closed {
		u.armed = d
		u.timer.Reset(d - now)
	}
}

// timerLoop writes what nobody flushed — senders without a driver (the
// chaos wrapper's delayed sends, Resolve, tests) and a driver stuck in a
// turn longer than flushInterval — and runs the reaper, both through tick.
func (u *UDP) timerLoop() {
	defer u.wg.Done()
	for {
		select {
		case <-u.done:
			return
		case <-u.timer.C:
			u.mu.Lock()
			now := u.now()
			u.writeLocked(u.core.tick(now))
			u.armed = -1 // the timer fired: arm it afresh whatever the deadline
			u.rearmLocked(now)
			u.mu.Unlock()
		}
	}
}

// writeLocked puts datagrams on the wire. Caller holds u.mu.
func (u *UDP) writeLocked(ds []datagram) {
	for _, d := range ds {
		u.write(d.b, d.addr) //nolint:errcheck // accounted inside
	}
}

// write puts one envelope on the wire and keeps the datagram and byte
// counters honest. Caller holds u.mu.
func (u *UDP) write(b []byte, addr netip.AddrPort) error {
	if _, err := u.wr.WriteToUDPAddrPort(b, addr); err != nil {
		u.tel.TxErrors.Inc()
		return err
	}
	u.tel.TxDatagrams.Inc()
	u.tel.TxBytes.Add(uint64(len(b)))
	return nil
}

// readLoop receives datagrams and dispatches their contents.
func (u *UDP) readLoop() {
	defer u.wg.Done()
	buf := make([]byte, maxDatagram)
	for {
		n, src, err := u.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			u.tel.RxErrors.Inc()
			continue
		}
		u.handleDatagram(buf[:n], unmapped(src))
	}
}

// handleDatagram applies one datagram under the lock, answers its ack, and
// delivers its frames outside the lock. A datagram read before Close but
// handled after it is dropped: learning its addresses could move stashed
// frames into a queue that nothing writes any more.
func (u *UDP) handleDatagram(b []byte, src netip.AddrPort) {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return
	}
	now := u.now()
	in := u.core.receive(src, b, now)
	if in.ack != nil {
		u.write(in.ack, src) //nolint:errcheck // accounted inside
	}
	recv := u.recv
	u.rearmLocked(now)
	u.mu.Unlock()
	in.dispatch(u.tel, recv)
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
	Goroutines   int // sender goroutines the transport owns: the timer goroutine while open
}

// Counters returns a snapshot of the transport's counters.
func (u *UDP) Counters() UDPCounters {
	u.mu.Lock()
	peers, queues, senders := len(u.core.book), len(u.core.queues), 1
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
