package transport

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vitis/internal/core"
	"vitis/internal/idspace"
	"vitis/internal/simnet"
	"vitis/internal/wire"
)

// The tests here open real sockets: they cover what only the shell around
// udpCore does — the socket, the read loop, the timer goroutine, the lock and
// Close. The protocol logic is tested on a virtual clock in
// udp_core_test.go.

func listenTestUDP(t *testing.T) *UDP {
	t.Helper()
	u, err := ListenUDP("127.0.0.1:0", UDPConfig{})
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	t.Cleanup(func() { u.Close() })
	return u
}

// countingUDP opens a transport hosting id that counts the frames it
// receives.
func countingUDP(t *testing.T, id simnet.NodeID) (*UDP, *atomic.Uint64) {
	t.Helper()
	u := listenTestUDP(t)
	u.Attach(id)
	rx := new(atomic.Uint64)
	u.SetReceiver(func(from, to simnet.NodeID, msg simnet.Message) { rx.Add(1) })
	return u, rx
}

func setPeer(t *testing.T, u *UDP, id simnet.NodeID, addr string) {
	t.Helper()
	if err := u.SetPeer(id, addr); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// drive runs a Driver on h until the test ends.
func drive(t *testing.T, h *Host) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		NewDriver(h).Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// tap stands between a UDP shell and its socket and parses the frames of
// every datagram the shell hands over back out of it. The shell calls it
// under its lock, which therefore guards fn's state too.
type tap struct {
	datagramWriter
	fn func(from, to simnet.NodeID, msg simnet.Message)
}

func tapUDP(u *UDP, fn func(from, to simnet.NodeID, msg simnet.Message)) {
	u.mu.Lock()
	u.wr = &tap{u.wr, fn}
	u.mu.Unlock()
}

func (t *tap) WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error) {
	e, _ := parseEnvelope(b)
	for fr := e.frames; len(fr) > 0; fr = fr[2+(int(fr[0])<<8|int(fr[1])):] {
		from, to, msg, err := wire.Decode(fr[2 : 2+(int(fr[0])<<8|int(fr[1]))])
		if err == nil {
			t.fn(from, to, msg)
		}
	}
	return t.datagramWriter.WriteToUDPAddrPort(b, addr)
}

// TestUDPCluster runs three Vitis nodes over real UDP sockets on the
// loopback interface. Address books are seeded from configuration (as a
// deployment would seed its bootstrap address); everything else — gossip,
// topology construction, publish/notify/pull — happens over datagrams.
func TestUDPCluster(t *testing.T) {
	us := []*UDP{listenTestUDP(t), listenTestUDP(t), listenTestUDP(t)}
	ids := []simnet.NodeID{idFor(0), idFor(1), idFor(2)}
	for i, u := range us {
		for j, v := range us {
			if i != j {
				setPeer(t, u, ids[j], v.LocalAddr().String())
			}
		}
	}
	trs := make([]Transport, len(us))
	for i, u := range us {
		trs[i] = u
	}
	runRealCluster(t, trs)
	if c := us[1].Counters(); c.RxFrames == 0 || c.TxFrames == 0 {
		t.Errorf("node 1 saw no datagram traffic: %+v", c)
	}
}

// idFor mirrors runRealCluster's id derivation so tests can seed address
// books before building the nodes.
func idFor(i int) simnet.NodeID { return idspace.HashUint64(uint64(i)) }

// TestUDPResolve checks the hello/ack handshake: knowing only a socket
// address, a node learns which id lives there.
func TestUDPResolve(t *testing.T) {
	server, client := listenTestUDP(t), listenTestUDP(t)
	server.Attach(42)
	id, err := client.Resolve(server.LocalAddr().String(), 5*time.Second)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if id != 42 {
		t.Fatalf("resolved id %d, want 42", id)
	}
}

// TestUDPResolveLowestID checks Resolve is deterministic when one socket
// address hosts several attached ids: the lowest id wins.
func TestUDPResolveLowestID(t *testing.T) {
	server, client := listenTestUDP(t), listenTestUDP(t)
	server.Attach(42)
	server.Attach(7)
	server.Attach(1009)
	id, err := client.Resolve(server.LocalAddr().String(), 5*time.Second)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if id != 7 {
		t.Fatalf("resolved id %d, want the lowest attached id 7", id)
	}
}

// TestUDPDeadlineFlushesUndrivenSends checks the shell's timer: frames
// nobody flushes leave once the core's flush deadline passes, which only a
// timer that calls tick can make happen.
func TestUDPDeadlineFlushesUndrivenSends(t *testing.T) {
	server, rx := countingUDP(t, 42)
	client, _ := countingUDP(t, 7)
	setPeer(t, client, 42, server.LocalAddr().String())

	start := time.Now()
	for i := 0; i < 2; i++ {
		if err := client.Send(7, 42, core.PullReq{}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool { return rx.Load() == 2 }, "both frames to arrive")
	if waited := time.Since(start); waited < flushInterval {
		t.Fatalf("frames arrived after %v, before the %v deadline", waited, flushInterval)
	}
}

// TestUDPClusterLearnsFromOneBootstrap runs 24 Vitis nodes over loopback
// UDP, each configured with the socket address of a single bootstrap peer.
// Need-driven hints must still teach every node every address it sends to:
// the stashes drain, nothing ages out of them, and no frame goes astray.
func TestUDPClusterLearnsFromOneBootstrap(t *testing.T) {
	const n = 24
	params := rtParams
	params.NetworkSizeEstimate = n
	tp := core.Topic("news")
	us, hosts, nodes := make([]*UDP, n), make([]*Host, n), make([]*core.Node, n)
	for i := range us {
		us[i] = listenTestUDP(t)
		hosts[i] = NewHost(simnet.NewEngine(int64(100+i)), us[i], nil)
		nodes[i] = core.NewNode(hosts[i], idFor(i), params, core.Hooks{})
		nodes[i].Subscribe(tp)
	}
	for i, nd := range nodes {
		boot := 0 // everyone boots from node 0, which boots from node 1
		if i == 0 {
			boot = 1
		}
		setPeer(t, us[i], idFor(boot), us[boot].LocalAddr().String())
		nd.Join([]core.NodeID{idFor(boot)})
	}
	hosts[0].Engine().Every(200*simnet.Millisecond, func() bool {
		nodes[0].Publish(tp)
		return true
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, h := range hosts {
		go NewDriver(h).Run(ctx)
	}

	waitFor(t, 8*time.Second, func() bool {
		for _, u := range us {
			if c := u.Counters(); c.TxPending != 0 || c.KnownPeers < n-1 {
				return false
			}
		}
		return true
	}, "every stash to drain and every book to fill")
	for i, u := range us {
		if c := u.Counters(); c.TxDropped != 0 || c.RxUnroutable != 0 {
			t.Errorf("node %d: TxDropped=%d RxUnroutable=%d, want 0 and 0", i, c.TxDropped, c.RxUnroutable)
		}
	}
}

// TestUDPConcurrentSendAndFlush has 8 goroutines send to two peers while two
// more call Flush in a loop and the timer runs: every frame is handed to the
// socket exactly once, and those of one (sender, peer) pair in order.
func TestUDPConcurrentSendAndFlush(t *testing.T) {
	const senders, perSender = 8, 200
	client, sink := listenTestUDP(t), listenTestUDP(t)
	for _, id := range []simnet.NodeID{2, 3} {
		setPeer(t, client, id, sink.LocalAddr().String())
	}
	next, bad := make(map[[2]simnet.NodeID]core.TopicID), 0
	tapUDP(client, func(from, to simnet.NodeID, msg simnet.Message) {
		k := [2]simnet.NodeID{from, to}
		if msg.(core.RelayMsg).Topic != next[k] {
			bad++
		}
		next[k] = msg.(core.RelayMsg).Topic + 1
	})

	stop := make(chan struct{})
	var flushers, wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		flushers.Add(1)
		go func() {
			defer flushers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					client.Flush()
					runtime.Gosched()
				}
			}
		}()
	}
	for g := 0; g < senders; g++ {
		for _, to := range []simnet.NodeID{2, 3} {
			wg.Add(1)
			go func(from simnet.NodeID) {
				defer wg.Done()
				for seq := 0; seq < perSender; seq++ {
					if err := client.Send(from, to, core.RelayMsg{Topic: core.TopicID(seq), Origin: from, TTL: 1}); err != nil {
						t.Errorf("Send: %v", err)
						return
					}
				}
			}(simnet.NodeID(100 + g))
		}
	}
	wg.Wait()
	close(stop)
	flushers.Wait()
	client.Flush()

	for k, n := range next {
		if n != perSender {
			t.Errorf("%d → %d: %d frames written, want %d", k[0], k[1], n, perSender)
		}
	}
	if c := client.Counters(); len(next) != 2*senders || bad != 0 || c.TxFrames != 2*senders*perSender || c.TxDropped != 0 {
		t.Errorf("%d pairs, %d frames out of sequence, TxFrames=%d TxDropped=%d; want %d, 0, %d, 0",
			len(next), bad, c.TxFrames, c.TxDropped, 2*senders, 2*senders*perSender)
	}
}

// TestUDPPeersCostNoGoroutines checks the transport's goroutine count does
// not depend on how many peers it talks to.
func TestUDPPeersCostNoGoroutines(t *testing.T) {
	sink, client := listenTestUDP(t), listenTestUDP(t)
	baseline := runtime.NumGoroutine()
	const peers = 200
	for i := 0; i < peers; i++ {
		id := simnet.NodeID(1000 + i)
		setPeer(t, client, id, sink.LocalAddr().String())
		if err := client.Send(7, id, core.PullReq{}); err != nil {
			t.Fatal(err)
		}
	}
	client.Flush()
	if c := client.Counters(); c.Queues != peers || c.Goroutines != 1 || c.TxDatagrams != peers {
		t.Fatalf("%+v, want %d queues and datagrams and 1 sender goroutine", c, peers)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines with %d peers, %d without", n, peers, baseline)
	}
}

// TestUDPCloseFlushes checks shutdown loses nothing silently: frames sent
// before Close are handed to the socket by its final flush, not dropped
// with the queues. A datagram handled after Close and a late SetPeer must
// not move a stash into a queue nothing writes any more.
func TestUDPCloseFlushes(t *testing.T) {
	const frames = 50
	server, client := listenTestUDP(t), listenTestUDP(t)
	setPeer(t, client, 42, server.LocalAddr().String())
	written := 0
	tapUDP(client, func(_, _ simnet.NodeID, _ simnet.Message) { written++ })
	for i := 0; i < frames; i++ {
		if err := client.Send(7, 42, core.PullReq{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Send(7, 99, core.PullReq{}); err != nil { // stashed: 99 is unknown
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	late := newVnode(3, 99)
	client.handleDatagram(late.bare(0, 0), late.addr)
	if err := client.SetPeer(99, late.addr.String()); !errors.Is(err, ErrClosed) {
		t.Fatalf("SetPeer after Close: %v, want ErrClosed", err)
	}
	c := client.Counters()
	if written != frames || c.TxFrames != frames || c.TxDropped != 0 || c.Queues != 0 || c.Goroutines != 0 {
		t.Fatalf("after Close: %d frames written, %+v; want %d written and accepted, nothing dropped, no queue, no goroutine", written, c, frames)
	}
	if d := client.tel.QueueDepth.Value(); d != 0 {
		t.Fatalf("after Close: queue depth %d, want 0", d)
	}
}

// TestUDPSendRacingCloseIsCounted checks the other half: a frame accepted
// by a Send that raced Close was either handed to the socket or counted as
// dropped. Frames are counted as they leave the shell, so a datagram the
// kernel loses on loopback cannot fail the test.
func TestUDPSendRacingCloseIsCounted(t *testing.T) {
	server, client := listenTestUDP(t), listenTestUDP(t)
	setPeer(t, client, 42, server.LocalAddr().String())
	var written uint64
	tapUDP(client, func(_, _ simnet.NodeID, _ simnet.Message) { written++ })

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := client.Send(7, 42, core.PullReq{}); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("Send: %v", err)
					}
					return
				}
				runtime.Gosched()
			}
		}()
	}
	for client.Counters().TxFrames < 100 {
		runtime.Gosched()
	}
	client.Close()
	wg.Wait()

	if c := client.Counters(); written+c.TxDropped != c.TxFrames || client.tel.QueueDepth.Value() != 0 {
		t.Fatalf("%d frames written + %d dropped != %d accepted, queue depth %d",
			written, c.TxDropped, c.TxFrames, client.tel.QueueDepth.Value())
	}
}

// TestUDPSendZeroAlloc pins the batched send hot path at zero allocations
// per frame: Send encodes straight into the warm per-peer batch buffer.
func TestUDPSendZeroAlloc(t *testing.T) {
	// Nobody reads the sink: a receiving transport's decoding would run
	// alongside the measurement and be counted in it.
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() })
	client := listenTestUDP(t)
	setPeer(t, client, 42, sink.LocalAddr().String())

	// Box the message once; interface conversion at the call site is the
	// caller's allocation, not the transport's.
	var msg simnet.Message = core.PullReq{}
	reset := func() { // what a flush does to the queue, minus the write
		client.mu.Lock()
		if q := client.core.queues[42]; q != nil {
			q.buf, q.frames, q.mentioned = q.buf[:0], 0, q.mentioned[:0]
		}
		client.core.dirty = client.core.dirty[:0]
		client.mu.Unlock()
	}
	const batch = 32
	send := func() {
		reset()
		for i := 0; i < batch; i++ {
			if err := client.Send(7, 42, msg); err != nil {
				t.Fatal(err)
			}
		}
	}
	send() // warm the buffer capacities
	if perFrame := testing.AllocsPerRun(50, send) / batch; perFrame != 0 {
		t.Fatalf("batched Send costs %v allocs/frame, want 0", perFrame)
	}
}

// TestUDPFlushZeroAlloc pins the writer's hot path: sending to warm queues
// and flushing them allocates nothing — not for the dirty list, the
// envelopes, the timer or the socket address.
func TestUDPFlushZeroAlloc(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() })
	client, _ := countingUDP(t, 7)
	const peers = 8
	for i := 0; i < peers; i++ {
		setPeer(t, client, simnet.NodeID(1000+i), sink.LocalAddr().String())
	}
	var msg simnet.Message = core.PullReq{}
	turn := func() {
		for i := 0; i < peers; i++ {
			if err := client.Send(7, simnet.NodeID(1000+i), msg); err != nil {
				t.Fatal(err)
			}
		}
		client.Flush()
	}
	turn() // warm every queue's buffer and the flush output
	if allocs := testing.AllocsPerRun(100, turn); allocs != 0 {
		t.Fatalf("a turn of %d sends and a Flush costs %v allocs, want 0", peers, allocs)
	}
}

// TestUDPHandleDatagramAllocs pins the receive path: a steady-state datagram
// from a known peer costs the transport nothing on top of decoding its frame.
func TestUDPHandleDatagramAllocs(t *testing.T) {
	a, _ := countingUDP(t, 1)
	b, rx := countingUDP(t, 2)
	src := a.LocalAddr().AddrPort()
	setPeer(t, b, 1, src.String())

	frame, err := wire.Encode(1, 2, core.RelayMsg{Topic: 9, Origin: 1, TTL: 1})
	if err != nil {
		t.Fatal(err)
	}
	batch := append([]byte{byte(len(frame) >> 8), byte(len(frame))}, frame...)
	a.mu.Lock()
	dgram := a.core.appendEnvelope(nil, flagFrame, batch, 1, nil, 0)
	a.mu.Unlock()

	decode := testing.AllocsPerRun(100, func() {
		if _, _, _, err := wire.Decode(frame); err != nil {
			t.Fatal(err)
		}
	})
	handle := testing.AllocsPerRun(100, func() { b.handleDatagram(dgram, src) })
	if handle > decode {
		t.Fatalf("handleDatagram costs %v allocs, wire.Decode of its frame %v", handle, decode)
	}
	if rx.Load() == 0 {
		t.Fatal("the datagram's frame was not delivered")
	}
}

// BenchmarkEnvelopeAppend measures building one v2 envelope around a warm
// batch — the per-datagram cost of the writer's hot path.
func BenchmarkEnvelopeAppend(b *testing.B) {
	c := newVnode(1, 1)
	for i := 0; i < 4; i++ {
		c.learn(simnet.NodeID(100+i), netip.MustParseAddrPort("127.0.0.1:9"), 0)
	}
	var frames []byte
	for i := 0; i < 16; i++ {
		f, err := wire.Encode(1, 2, core.PullReq{})
		if err != nil {
			b.Fatal(err)
		}
		frames = append(frames, byte(len(f)>>8), byte(len(f)))
		frames = append(frames, f...)
	}
	out := make([]byte, 0, maxDatagram)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = c.appendEnvelope(out[:0], flagFrame, frames, 16, nil, 0)
	}
	_ = out
}

// nullTransport is a do-nothing Transport for Host-only tests.
type nullTransport struct{}

func (nullTransport) SetReceiver(RecvFunc)                            {}
func (nullTransport) Attach(simnet.NodeID)                            {}
func (nullTransport) Detach(simnet.NodeID)                            {}
func (nullTransport) Send(_, _ simnet.NodeID, _ simnet.Message) error { return nil }
func (nullTransport) Flush()                                          {}
func (nullTransport) Close() error                                    { return nil }

// TestHostInboxDepthDrainsToZero checks the InboxDepth gauge accounting
// across the Host/Driver split: a burst beyond the inbox capacity counts
// the overflow as InboxDrops without skewing the depth gauge, and once the
// driver drains the backlog the gauge returns exactly to zero.
func TestHostInboxDepthDrainsToZero(t *testing.T) {
	eng := simnet.NewEngine(1)
	h := NewHost(eng, nullTransport{}, nil)
	delivered, drained := 0, make(chan struct{})
	h.Attach(42, simnet.HandlerFunc(func(from simnet.NodeID, msg simnet.Message) {
		if delivered++; delivered == inboxCap {
			close(drained)
		}
	}))

	const extra = 50
	for i := 0; i < inboxCap+extra; i++ { // no driver yet: fill and overflow
		h.receive(7, 42, core.PullReq{})
	}
	if got := h.tel.InboxDepth.Value(); got != inboxCap {
		t.Fatalf("InboxDepth = %d after burst, want %d (drops must not skew the gauge)", got, inboxCap)
	}
	if got := h.Counters().InboxDrops; got != extra {
		t.Fatalf("InboxDrops = %d, want %d", got, extra)
	}
	drive(t, h)
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("the driver never drained the burst")
	}
	if got := h.tel.InboxDepth.Value(); got != 0 {
		t.Fatalf("InboxDepth = %d after drain, want 0", got)
	}
}
