package transport

import (
	"go/ast"
	"go/parser"
	"go/token"
	"net/netip"
	"strconv"
	"sync"
	"testing"
	"time"

	"vitis/internal/core"
	"vitis/internal/simnet"
	"vitis/internal/telemetry"
)

// vnode is a udpCore at a virtual address, recording the messages it
// dispatches. Core tests move datagrams between vnodes by hand: no socket,
// no goroutine, and now is whatever the test says.
type vnode struct {
	*udpCore
	addr netip.AddrPort
	got  []simnet.Message
}

func newVnode(port uint16, ids ...simnet.NodeID) *vnode {
	n := &vnode{
		udpCore: newUDPCore(telemetry.NewTransportMetrics(telemetry.NewRegistry())),
		addr:    netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), port),
	}
	for _, id := range ids {
		n.setLocal(id, true)
	}
	return n
}

// knows seeds n's book with id at peer's address.
func (n *vnode) knows(id simnet.NodeID, peer *vnode) { n.learn(id, peer.addr, 0) }

// deliver hands every datagram addressed to one of to over as sent by n.
func (n *vnode) deliver(ds []datagram, now time.Duration, to ...*vnode) {
	for _, d := range ds {
		for _, dst := range to {
			if d.addr == dst.addr {
				in := dst.receive(n.addr, d.b, now)
				in.dispatch(dst.tel, func(_, _ simnet.NodeID, msg simnet.Message) { dst.got = append(dst.got, msg) })
			}
		}
	}
}

// frameCount counts the wire frames in ds.
func frameCount(t *testing.T, ds []datagram) (n int) {
	t.Helper()
	for _, d := range ds {
		e, err := parseEnvelope(d.b)
		if err != nil {
			t.Fatalf("core wrote a malformed datagram: %v", err)
		}
		n += e.nFrames
	}
	return n
}

// TestUDPBatchingReducesDatagrams checks a burst of frames to one peer
// coalesces into far fewer datagrams, and every frame arrives.
func TestUDPBatchingReducesDatagrams(t *testing.T) {
	a, b := newVnode(1, 7), newVnode(2, 42)
	a.knows(42, b)
	const n = 64
	for i := 0; i < n; i++ {
		if err := a.send(7, 42, core.PullReq{}, 0); err != nil {
			t.Fatal(err)
		}
	}
	ds := a.flush(0)
	if len(ds)*2 > n || frameCount(t, ds) != n {
		t.Fatalf("%d datagrams carrying %d frames, want all %d in at most %d", len(ds), frameCount(t, ds), n, n/2)
	}
	a.deliver(ds, 0, b)
	if len(b.got) != n || a.tel.TxFrames.Value() != n {
		t.Fatalf("%d frames arrived, %d counted sent, want %d", len(b.got), a.tel.TxFrames.Value(), n)
	}
}

// TestDrivenHostNeverReachesDeadline runs 200 turns that each send and
// flush within flushInterval: the core reports the flush deadline while a
// frame waits and tick never writes before it; each written datagram is
// observed by the flush-wait histogram. Two undriven frames sent 1 ms
// apart are written by tick at the first one's deadline, together in one
// datagram.
func TestDrivenHostNeverReachesDeadline(t *testing.T) {
	a, b := newVnode(1, 7), newVnode(2, 42)
	a.knows(42, b)
	datagrams := 0
	for turn := 0; turn < 200; turn++ {
		now := time.Duration(turn) * 3 * time.Millisecond
		if err := a.send(7, 42, core.PullReq{}, now); err != nil {
			t.Fatal(err)
		}
		if d := a.nextDeadline(); d != now+flushInterval {
			t.Fatalf("turn %d: next deadline %v, want the flush deadline %v", turn, d, now+flushInterval)
		}
		if ds := a.tick(now + flushInterval - 1); len(ds) != 0 {
			t.Fatalf("turn %d: tick wrote %d datagrams before the deadline", turn, len(ds))
		}
		datagrams += len(a.flush(now + time.Millisecond))
		if a.nextDeadline() < now+flushInterval+time.Millisecond {
			t.Fatalf("turn %d: a flush deadline outlived the flush", turn)
		}
	}
	if got := a.tel.FlushWait.Count(); got != uint64(datagrams) || datagrams != 200 {
		t.Fatalf("%d flush-wait observations for %d datagrams, want 200 each", got, datagrams)
	}
	start := time.Second
	for _, at := range []time.Duration{start, start + time.Millisecond} {
		if err := a.send(7, 42, core.PullReq{}, at); err != nil {
			t.Fatal(err)
		}
	}
	if ds := a.tick(start + flushInterval - 1); len(ds) != 0 {
		t.Fatalf("tick wrote %d datagrams before the undriven deadline", len(ds))
	}
	if ds := a.tick(start + flushInterval); len(ds) != 1 || frameCount(t, ds) != 2 {
		t.Fatalf("tick at the deadline wrote %d datagrams carrying %d frames, want one carrying both undriven frames", len(ds), frameCount(t, ds))
	}
}

// TestUDPPendingFlush checks a frame sent before the peer's address is
// known is stashed, and flushed once a datagram teaches the address.
func TestUDPPendingFlush(t *testing.T) {
	client, server := newVnode(1, 7), newVnode(2, 42)
	if err := client.send(7, 42, core.PullReq{}, 0); err != nil {
		t.Fatal(err)
	}
	if got := client.tel.TxPending.Value(); got != 1 || len(client.flush(0)) != 0 {
		t.Fatalf("TxPending = %d, want 1 and nothing to write", got)
	}
	server.deliver([]datagram{{client.addr, server.bare(0, 0)}}, 0, client) // an ack teaches 42's address
	client.deliver(client.flush(0), 0, server)
	if got := client.tel.TxPending.Value(); got != 0 || len(server.got) != 1 {
		t.Fatalf("TxPending = %d and %d frames arrived, want 0 and the stashed one", got, len(server.got))
	}
	if _, ok := server.got[0].(core.PullReq); !ok {
		t.Fatalf("got %#v, want core.PullReq", server.got[0])
	}
}

// TestUDPPendingOverflowAccounting checks overflowing pendingCap counts the
// dropped oldest frame as TxDropped, and flushing the stash returns the
// TxPending gauge to zero with the rest in order.
func TestUDPPendingOverflowAccounting(t *testing.T) {
	client, server := newVnode(1, 7), newVnode(2, 42)
	for i := 1; i <= pendingCap+1; i++ {
		if err := client.send(7, 42, core.RelayMsg{Topic: core.TopicID(i), Origin: 7, TTL: 1}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if p, d := client.tel.TxPending.Value(), client.tel.TxDropped.Value(); p != pendingCap || d != 1 {
		t.Fatalf("after overflow: TxPending=%d TxDropped=%d, want %d and 1", p, d, pendingCap)
	}
	client.knows(42, server)
	if p := client.tel.TxPending.Value(); p != 0 {
		t.Fatalf("stash flush left TxPending=%d, want 0", p)
	}
	client.deliver(client.flush(0), 0, server)
	if len(server.got) != pendingCap {
		t.Fatalf("%d frames arrived, want the %d surviving stashed ones", len(server.got), pendingCap)
	}
	for i, m := range server.got {
		if got := m.(core.RelayMsg).Topic; got != core.TopicID(i+2) {
			t.Fatalf("frame %d has topic %d, want topics 2…%d in order (the oldest dropped)", i, got, pendingCap+1)
		}
	}
}

// TestUDPPendingTimeoutAgesOut checks frames stashed for a peer that never
// resolves are reaped after pendingTimeout, not before: the gauge drains and
// the drops are counted.
func TestUDPPendingTimeoutAgesOut(t *testing.T) {
	c := newVnode(1, 7)
	if err := c.send(7, 99, core.PullReq{}, 0); err != nil {
		t.Fatal(err)
	}
	for now := time.Duration(0); now <= pendingTimeout; now += reapEvery / 2 {
		c.tick(now)
		if p, d := c.tel.TxPending.Value(), c.tel.TxDropped.Value(); p != 1 || d != 0 {
			t.Fatalf("at %v: TxPending=%d TxDropped=%d, want 1 and 0", now, p, d)
		}
	}
	c.tick(c.nextDeadline())
	if p, d := c.tel.TxPending.Value(), c.tel.TxDropped.Value(); p != 0 || d != 1 {
		t.Fatalf("after pendingTimeout: TxPending=%d TxDropped=%d, want 0 and 1", p, d)
	}
}

// TestUDPPeerChurnReapsEverything checks that after peer churn the reaper
// frees the idle queues (idleTimeout) and drains the address book
// (peerTTL), so a long-lived node's footprint stays flat.
func TestUDPPeerChurnReapsEverything(t *testing.T) {
	c, sink := newVnode(1, 7), newVnode(2)
	const peers = 40
	for i := 0; i < peers; i++ {
		c.knows(simnet.NodeID(1000+i), sink)
		if err := c.send(7, simnet.NodeID(1000+i), core.PullReq{}, 0); err != nil {
			t.Fatal(err)
		}
	}
	c.flush(0)
	if len(c.book) != peers || len(c.queues) != peers {
		t.Fatalf("churn setup: %d book entries and %d queues, want %d", len(c.book), len(c.queues), peers)
	}
	c.tick(peerTTL + time.Second)
	if len(c.queues) != 0 || len(c.book) != 0 || c.tel.KnownPeers.Value() != 0 {
		t.Fatalf("after peerTTL: %d queues, %d book entries, gauge %d; want none", len(c.queues), len(c.book), c.tel.KnownPeers.Value())
	}
}

// TestUDPSendAfterIdleTeardown checks a peer whose queue was torn down is
// transparently revived by the next send.
func TestUDPSendAfterIdleTeardown(t *testing.T) {
	client, server := newVnode(1, 7), newVnode(2, 42)
	client.knows(42, server)
	client.send(7, 42, core.PullReq{}, 0)
	client.deliver(client.flush(0), 0, server)
	now := idleTimeout + time.Second
	client.tick(now)
	if len(client.queues) != 0 || len(client.book) != 1 {
		t.Fatalf("after idleTimeout: %d queues, %d book entries; want 0 and 1", len(client.queues), len(client.book))
	}
	client.send(7, 42, core.PullReq{}, now)
	client.deliver(client.flush(now), now, server)
	if len(server.got) != 2 {
		t.Fatalf("%d frames arrived, want the one after revival too", len(server.got))
	}
}

// TestUDPSendRacingTeardown interleaves sends with reaper runs that find
// every empty queue idle: every frame still arrives once and in order,
// whichever side of a teardown it fell on, and none is dropped.
func TestUDPSendRacingTeardown(t *testing.T) {
	client, server := newVnode(1, 7), newVnode(2, 42)
	const n = 300
	for seq := 0; seq < n; seq++ {
		now := time.Duration(seq) * (idleTimeout + reapEvery)
		client.learn(42, server.addr, now) // the peer's traffic keeps its book entry fresh
		client.send(7, 42, core.RelayMsg{Topic: core.TopicID(seq), Origin: 7, TTL: 1}, now)
		if seq%3 == 0 {
			client.deliver(client.flush(now), now, server)
		}
		client.deliver(client.tick(now+idleTimeout+1), now, server)
	}
	client.deliver(client.flush(n*(idleTimeout+reapEvery)), 0, server)
	for i, m := range server.got {
		if m.(core.RelayMsg).Topic != core.TopicID(i) {
			t.Fatalf("frame %d carries sequence %d", i, m.(core.RelayMsg).Topic)
		}
	}
	if len(server.got) != n || client.tel.TxDropped.Value() != 0 {
		t.Fatalf("%d of %d frames arrived, %d dropped", len(server.got), n, client.tel.TxDropped.Value())
	}
}

// TestUDPHintsSpreadAddresses checks the epidemic address book: a node that
// has never been told a third party's address learns it from a hint
// piggybacked on a message that mentions it.
func TestUDPHintsSpreadAddresses(t *testing.T) {
	a, b, c := newVnode(1, 1), newVnode(2, 2), newVnode(3, 3)
	a.knows(2, b)
	a.knows(3, c)
	b.knows(1, a)
	a.send(1, 2, core.RelayMsg{Topic: 9, Origin: 3, TTL: 1}, 0)
	a.deliver(a.flush(0), 0, b)
	if e, ok := b.book[3]; !ok || e.addr != c.addr {
		t.Fatalf("b's book has 3 at %v (%v), want %v", e.addr, ok, c.addr)
	}
}

// TestUDPHintRepeatInterval checks the ledger: an id mentioned to a peer
// twice within hintEvery is hinted once, and again after that.
func TestUDPHintRepeatInterval(t *testing.T) {
	a, p := newVnode(1, 1), newVnode(2, 2)
	a.knows(2, p)
	a.learn(3, netip.MustParseAddrPort("127.0.0.1:9"), 0)
	for i, at := range []time.Duration{time.Second, time.Second + hintEvery - 1, time.Second + hintEvery} {
		a.send(1, 2, core.RelayMsg{Topic: 9, Origin: 3, TTL: 1}, at)
		a.flush(at)
		if got, want := a.tel.TxHints.Value(), uint64(1+i/2); got != want {
			t.Fatalf("after mention %d: %d hints sent, want %d", i+1, got, want)
		}
	}
}

// TestUDPHintLedgerAtTimeZero checks a hint recorded at the clock's origin
// counts as recorded: time 0 is an instant like any other, not a free slot.
func TestUDPHintLedgerAtTimeZero(t *testing.T) {
	a, p := newVnode(1, 1), newVnode(2, 2)
	a.knows(2, p)
	a.learn(3, netip.MustParseAddrPort("127.0.0.1:9"), 0)
	for i := 0; i < 3; i++ {
		a.send(1, 2, core.RelayMsg{Topic: 9, Origin: 3, TTL: 1}, 0)
		a.flush(0)
	}
	if got := a.tel.TxHints.Value(); got != 1 {
		t.Fatalf("three mentions at time 0 sent %d hints, want 1", got)
	}
}

// TestUDPLostFirstHintIsRepeated loses the datagram that carries the first
// hint for a node the receiver is holding a frame for. The sender keeps
// mentioning the node, so the hint is repeated after hintEvery and the
// receiver's stash flushes before it ages out.
func TestUDPLostFirstHintIsRepeated(t *testing.T) {
	a, p, x := newVnode(1, 1), newVnode(2, 2), newVnode(3, 3)
	a.knows(2, p)
	a.knows(3, x)
	p.send(2, 3, core.PullReq{}, 0) // p cannot reach 3 yet
	now := time.Duration(0)
	for ; len(x.got) == 0; now += 100 * time.Millisecond {
		if now > pendingTimeout {
			t.Fatalf("p's frame for 3 still stashed after pendingTimeout: TxPending=%d", p.tel.TxPending.Value())
		}
		a.send(1, 2, core.RelayMsg{Topic: 9, Origin: 3, TTL: 1}, now)
		if ds := a.flush(now); now > 0 { // the first datagram, with the first hint, is lost
			a.deliver(ds, now, p)
		}
		p.deliver(p.tick(now), now, x)
		p.deliver(p.flush(now), now, x)
	}
	if now <= hintEvery || p.tel.TxDropped.Value() != 0 || a.tel.TxHints.Value() != 2 {
		t.Fatalf("stash drained at %v with %d drops after %d hints, want after %v, 0 and 2", now, p.tel.TxDropped.Value(), a.tel.TxHints.Value(), hintEvery)
	}
}

// TestUDPSteadyStateEnvelopeHasNoHints checks the envelope diet: once two
// peers have exchanged their first datagrams, 200 more datagrams whose
// frames keep mentioning a third node carry no address hint at all.
func TestUDPSteadyStateEnvelopeHasNoHints(t *testing.T) {
	a, b := newVnode(1, 1), newVnode(2, 2)
	a.knows(2, b)
	a.learn(3, netip.MustParseAddrPort("127.0.0.1:9"), 0)
	b.knows(1, a)
	msg := core.RelayMsg{Topic: 9, Origin: 3, TTL: 1}
	for i := 0; i <= 100; i++ {
		now := time.Duration(i) * time.Millisecond
		for _, l := range []struct {
			from, to *vnode
			src, dst simnet.NodeID
		}{{a, b, 1, 2}, {b, a, 2, 1}} {
			l.from.send(l.src, l.dst, msg, now)
			ds := l.from.flush(now)
			l.from.deliver(ds, now, l.to)
			if e, _ := parseEnvelope(ds[0].b); i > 0 && e.nHints != 0 {
				t.Fatalf("datagram %d from %d carries %d hints, want 0", i, l.src, e.nHints)
			}
		}
	}
}

// TestUDPHintsPerDatagramBounded checks second-hand learning is capped: a
// datagram claiming 255 hints teaches maxHints of them and is counted as an
// error.
func TestUDPHintsPerDatagramBounded(t *testing.T) {
	c := newVnode(1)
	dgram := []byte{'V', 'P', envVersion, 0, 0, 255}
	for i := 0; i < 255; i++ {
		dgram = appendU64(dgram, uint64(1000+i))
		dgram = append(dgram, 4, 127, 0, 0, 1, 0, 9)
	}
	c.receive(c.addr, append(dgram, 0, 0), 0)
	if len(c.book) != maxHints || c.tel.RxErrors.Value() != 1 {
		t.Fatalf("KnownPeers=%d RxErrors=%d, want %d and 1", len(c.book), c.tel.RxErrors.Value(), maxHints)
	}
}

// TestUDPUnknownVersionCounted checks datagrams of any envelope version but
// the current one (the retired version 1 included) are counted and dropped
// whole.
func TestUDPUnknownVersionCounted(t *testing.T) {
	c := newVnode(1)
	for _, v := range []byte{1, 3} {
		dgram := appendU64([]byte{'V', 'P', v, 0, 1}, 7)
		c.receive(c.addr, append(dgram, 0, 0, 0), 0)
	}
	if len(c.book) != 0 || c.tel.RxDatagrams.Value() != 0 || c.tel.RxErrors.Value() != 2 {
		t.Fatalf("rejected datagrams left a trace: book %d, RxDatagrams %d, RxErrors %d", len(c.book), c.tel.RxDatagrams.Value(), c.tel.RxErrors.Value())
	}
}

// turnLog is a Transport that queues into a udpCore and reports, per Flush
// that wrote anything, how many datagrams it wrote.
type turnLog struct {
	nullTransport
	mu      sync.Mutex
	c       *vnode
	flushed chan int
}

func (l *turnLog) Send(from, to simnet.NodeID, msg simnet.Message) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.c.send(from, to, msg, 0)
}

func (l *turnLog) Flush() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.c.flush(0)); n > 0 {
		l.flushed <- n
	}
}

// TestDriverFlushesOncePerTurn checks the turn flush: what one engine event
// sends to two peers leaves in one Flush, as one datagram per peer.
func TestDriverFlushesOncePerTurn(t *testing.T) {
	l := &turnLog{c: newVnode(1, 1), flushed: make(chan int, 1)}
	l.c.knows(2, newVnode(2))
	l.c.knows(3, newVnode(3))
	eng := simnet.NewEngine(1)
	h := NewHost(eng, l, nil)
	eng.Schedule(0, func() {
		for i := 0; i < 3; i++ {
			h.Send(1, 2, core.PullReq{})
		}
		h.Send(1, 3, core.PullReq{})
	})
	drive(t, h)
	select {
	case n := <-l.flushed:
		if n != 2 || l.c.tel.TxFrames.Value() != 4 {
			t.Fatalf("the turn's Flush wrote %d datagrams for %d frames, want 2 for 4", n, l.c.tel.TxFrames.Value())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the driver never flushed the turn")
	}
}

// TestUDPCoreHasNoIO keeps the core pure: no socket, no lock, no goroutine
// and no clock, so every test above can drive it on a virtual one.
func TestUDPCoreHasNoIO(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "udp_core.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "net" || p == "sync" || p == "sync/atomic" {
			t.Errorf("udp_core.go imports %s", p)
		}
	}
	banned := map[string]bool{"Now": true, "Since": true, "After": true, "NewTimer": true, "NewTicker": true}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			t.Error("udp_core.go starts a goroutine")
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && x.Name == "time" && banned[n.Sel.Name] {
				t.Errorf("udp_core.go calls time.%s", n.Sel.Name)
			}
		}
		return true
	})
}
