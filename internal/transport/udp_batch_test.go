package transport

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vitis/internal/core"
	"vitis/internal/simnet"
	"vitis/internal/wire"
)

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

// TestUDPBatchingReducesDatagrams checks the tentpole property of the v2
// envelope: a burst of frames to one peer coalesces into far fewer
// datagrams (the seed path was strictly one datagram per frame).
func TestUDPBatchingReducesDatagrams(t *testing.T) {
	server := listenTestUDP(t)
	server.Attach(42)
	var rx atomic.Uint64
	server.SetReceiver(func(from, to simnet.NodeID, msg simnet.Message) { rx.Add(1) })

	client, err := listenUDP("127.0.0.1:0", UDPConfig{}, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	if err := client.SetPeer(42, server.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}

	const frames = 64
	for i := 0; i < frames; i++ {
		if err := client.Send(7, 42, core.PullReq{}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return rx.Load() == frames }, "all frames to arrive")

	c := client.Counters()
	if c.TxFrames != frames {
		t.Fatalf("TxFrames = %d, want %d", c.TxFrames, frames)
	}
	if c.TxDatagrams*2 > c.TxFrames {
		t.Fatalf("batching too weak: %d datagrams for %d frames, want at least 2x coalescing", c.TxDatagrams, c.TxFrames)
	}
	if c.TxBytes == 0 || server.Counters().RxBytes == 0 {
		t.Fatalf("byte counters did not move: client=%+v server=%+v", c, server.Counters())
	}
}

// TestUDPSendZeroAlloc pins the batched send hot path at zero allocations
// per frame: Send encodes straight into the warm per-peer batch buffer.
func TestUDPSendZeroAlloc(t *testing.T) {
	server := listenTestUDP(t)
	// Keep every frame buffered so the measurement sees only the append
	// path: a deadline that never comes during the run.
	client, err := listenUDP("127.0.0.1:0", UDPConfig{}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	if err := client.SetPeer(42, server.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}

	// Box the message once; interface conversion at the call site is the
	// caller's allocation, not the transport's.
	var msg simnet.Message = core.PullReq{}
	if err := client.Send(7, 42, msg); err != nil {
		t.Fatal(err)
	}
	client.mu.Lock()
	q := client.queues[42]
	client.mu.Unlock()
	if q == nil {
		t.Fatal("no batch queue after Send")
	}
	reset := func() { // what Flush does to the queue, minus the write
		q.mu.Lock()
		q.buf = q.buf[:0]
		q.frames = 0
		q.mentioned = q.mentioned[:0]
		q.mu.Unlock()
		client.dirtyMu.Lock()
		client.dirty = client.dirty[:0]
		client.dirtyMu.Unlock()
	}

	const batch = 32
	for i := 0; i < batch; i++ { // warm the buffer capacities
		if err := client.Send(7, 42, msg); err != nil {
			t.Fatal(err)
		}
	}
	perFrame := testing.AllocsPerRun(50, func() {
		reset()
		for i := 0; i < batch; i++ {
			if err := client.Send(7, 42, msg); err != nil {
				t.Fatal(err)
			}
		}
	}) / batch
	if perFrame != 0 {
		t.Fatalf("batched Send costs %v allocs/frame, want 0", perFrame)
	}
}

// TestUDPPendingOverflowAccounting checks the stash bookkeeping bugfix:
// overflowing pendingCap counts the dropped oldest frame as TxDropped,
// and flushing the stash returns the TxPending gauge to zero.
func TestUDPPendingOverflowAccounting(t *testing.T) {
	server := listenTestUDP(t)
	server.Attach(42)
	var mu sync.Mutex
	var topics []core.TopicID
	server.SetReceiver(func(from, to simnet.NodeID, msg simnet.Message) {
		if m, ok := msg.(core.RelayMsg); ok {
			mu.Lock()
			topics = append(topics, m.Topic)
			mu.Unlock()
		}
	})

	client := listenTestUDP(t)
	for i := 1; i <= pendingCap+1; i++ {
		if err := client.Send(7, 42, core.RelayMsg{Topic: core.TopicID(i), Origin: 7, TTL: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if c := client.Counters(); c.TxPending != pendingCap || c.TxDropped != 1 {
		t.Fatalf("after overflow: TxPending=%d TxDropped=%d, want %d and 1", c.TxPending, c.TxDropped, pendingCap)
	}

	if err := client.SetPeer(42, server.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	if c := client.Counters(); c.TxPending != 0 {
		t.Fatalf("stash flush left TxPending=%d, want 0", c.TxPending)
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(topics) == pendingCap
	}, "flushed stash to arrive")
	mu.Lock()
	defer mu.Unlock()
	for i, tp := range topics {
		if tp != core.TopicID(i+2) {
			t.Fatalf("stash kept topics %v, want 2…%d in order (the oldest dropped)", topics, pendingCap+1)
		}
	}
}

// TestUDPPendingTimeoutAgesOut checks frames stashed for a peer that never
// resolves are reaped after pendingTimeout, not before: the gauge drains and
// the drops are counted. The last step is left to the reaper goroutine, so
// a reapLoop that never runs reapOnce fails here.
func TestUDPPendingTimeoutAgesOut(t *testing.T) {
	client := listenTestUDP(t)
	if err := client.Send(7, 99, core.PullReq{}); err != nil {
		t.Fatal(err)
	}
	client.reapOnce(time.Now().Add(pendingTimeout / 2))
	if c := client.Counters(); c.TxPending != 1 || c.TxDropped != 0 {
		t.Fatalf("before pendingTimeout: TxPending=%d TxDropped=%d, want 1 and 0", c.TxPending, c.TxDropped)
	}
	client.mu.Lock()
	client.pending[99][0].at = time.Now().Add(-pendingTimeout - time.Second)
	client.mu.Unlock()
	waitFor(t, pendingTimeout, func() bool {
		c := client.Counters()
		return c.TxPending == 0 && c.TxDropped == 1
	}, "the reaper to age the stash out")
}

// TestUDPPeerChurnReapsEverything checks the lifecycle bugfix: after peer
// churn the reaper frees the idle queues (idleTimeout) and drains the
// address book (peerTTL), so a long-lived node's footprint stays flat.
func TestUDPPeerChurnReapsEverything(t *testing.T) {
	sink := listenTestUDP(t) // absorbs the churn traffic
	client := listenTestUDP(t)
	baseline := runtime.NumGoroutine()

	const peers = 40
	for i := 0; i < peers; i++ {
		id := simnet.NodeID(1000 + i)
		if err := client.SetPeer(id, sink.LocalAddr().String()); err != nil {
			t.Fatal(err)
		}
		if err := client.Send(7, id, core.PullReq{}); err != nil {
			t.Fatal(err)
		}
	}
	if c := client.Counters(); c.KnownPeers != peers || c.Queues != peers {
		t.Fatalf("churn setup: %+v, want %d known peers and queues", c, peers)
	}

	waitFor(t, 10*time.Second, func() bool {
		client.reapOnce(time.Now().Add(peerTTL + time.Second)) // past both limits
		c := client.Counters()
		return c.Queues == 0 && c.KnownPeers == 0 && runtime.NumGoroutine() <= baseline
	}, "queues and book entries to be reaped")
}

// TestUDPSendAfterIdleTeardown checks a peer whose queue was torn down is
// transparently revived by the next send.
func TestUDPSendAfterIdleTeardown(t *testing.T) {
	server := listenTestUDP(t)
	server.Attach(42)
	var rx atomic.Uint64
	server.SetReceiver(func(from, to simnet.NodeID, msg simnet.Message) { rx.Add(1) })

	client := listenTestUDP(t)
	if err := client.SetPeer(42, server.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}

	if err := client.Send(7, 42, core.PullReq{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return rx.Load() == 1 }, "first frame")
	client.reapOnce(time.Now().Add(idleTimeout + time.Second))
	if c := client.Counters(); c.Queues != 0 || c.KnownPeers != 1 {
		t.Fatalf("after idleTimeout: %d queues, %d known peers; want 0 and 1", c.Queues, c.KnownPeers)
	}

	if err := client.Send(7, 42, core.PullReq{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return rx.Load() == 2 }, "frame after revival")
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

// BenchmarkEnvelopeAppend measures building one v2 envelope around a warm
// batch — the per-datagram cost of the writer's hot path.
func BenchmarkEnvelopeAppend(b *testing.B) {
	u, err := ListenUDP("127.0.0.1:0", UDPConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer u.Close()
	u.Attach(1)
	for i := 0; i < 4; i++ {
		if err := u.SetPeer(simnet.NodeID(100+i), "127.0.0.1:9"); err != nil {
			b.Fatal(err)
		}
	}
	var frames []byte
	var msg simnet.Message = core.PullReq{}
	for i := 0; i < 16; i++ {
		f, err := wire.Encode(1, 2, msg)
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
		u.mu.Lock()
		out = u.appendEnvelopeLocked(out[:0], flagFrame, frames, 16, nil)
		u.mu.Unlock()
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
	var delivered atomic.Uint64
	h.Attach(42, simnet.HandlerFunc(func(from simnet.NodeID, msg simnet.Message) {
		delivered.Add(1)
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

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		NewDriver(h).Run(ctx)
	}()
	waitFor(t, 10*time.Second, func() bool { return delivered.Load() == inboxCap }, "driver to drain the burst")
	if got := h.tel.InboxDepth.Value(); got != 0 {
		t.Fatalf("InboxDepth = %d after drain, want 0", got)
	}
	cancel()
	<-done
}
