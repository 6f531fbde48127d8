package transport

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"vitis/internal/core"
	"vitis/internal/simnet"
	"vitis/internal/telemetry"
	"vitis/internal/wire"
)

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

// TestDriverFlushesOncePerTurn checks the turn flush: what one engine event
// sends to a peer leaves as one datagram, written by the driver. The deadline
// is an hour away, so any arrival proves the turn flush carried it.
func TestDriverFlushesOncePerTurn(t *testing.T) {
	x, rxX := countingUDP(t, 2, flushInterval)
	y, rxY := countingUDP(t, 3, flushInterval)
	a, _ := countingUDP(t, 1, time.Hour)
	setPeer(t, a, 2, x.LocalAddr().String())
	setPeer(t, a, 3, y.LocalAddr().String())

	eng := simnet.NewEngine(1)
	h := NewHost(eng, a, nil)
	eng.Schedule(0, func() {
		for i := 0; i < 3; i++ {
			h.Send(1, 2, core.PullReq{})
		}
		h.Send(1, 3, core.PullReq{})
	})
	drive(t, h)

	waitFor(t, 5*time.Second, func() bool { return rxX.Load() == 3 && rxY.Load() == 1 }, "the turn's frames to arrive")
	if c := a.Counters(); c.TxDatagrams != 2 || c.TxFrames != 4 {
		t.Fatalf("%d datagrams for %d frames, want 2 (one per peer) for 4", c.TxDatagrams, c.TxFrames)
	}
	if n := a.deadlineDatagrams.Load(); n != 0 {
		t.Fatalf("the deadline goroutine wrote %d datagrams, want 0", n)
	}
}

// TestUDPDeadlineFlushesUndrivenSends checks the other caller of Flush: a
// bare Send nobody flushes leaves the deadline later, together with what
// was sent to the same peer meanwhile.
func TestUDPDeadlineFlushesUndrivenSends(t *testing.T) {
	const interval = 20 * time.Millisecond
	server, rx := countingUDP(t, 42, flushInterval)
	client, _ := countingUDP(t, 7, interval)
	setPeer(t, client, 42, server.LocalAddr().String())

	start := time.Now()
	for i := 0; i < 2; i++ {
		if err := client.Send(7, 42, core.PullReq{}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return rx.Load() == 2 }, "both frames to arrive")
	if waited := time.Since(start); waited < interval {
		t.Fatalf("frames arrived after %v, before the %v deadline", waited, interval)
	}
	if c, n := client.Counters(), client.deadlineDatagrams.Load(); c.TxDatagrams != 1 || n != 1 {
		t.Fatalf("%d datagrams, %d by the deadline goroutine, want 1 and 1", c.TxDatagrams, n)
	}
}

// TestDrivenHostNeverReachesDeadline runs 200 sending turns with telemetry
// on: every datagram is written by the turn flush, none by the deadline
// goroutine, and each write is observed by the flush-wait histogram.
func TestDrivenHostNeverReachesDeadline(t *testing.T) {
	const turns = 200
	server, rx := countingUDP(t, 42, flushInterval)
	// A turn that stalls for a quarter second may be flushed by the
	// deadline; anything shorter must not be.
	m := telemetry.NewTransportMetrics(telemetry.NewRegistry())
	client, err := listenUDP("127.0.0.1:0", UDPConfig{Metrics: m}, 250*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	client.Attach(7)
	setPeer(t, client, 42, server.LocalAddr().String())

	eng := simnet.NewEngine(1)
	h := NewHost(eng, client, nil)
	sent := 0
	eng.Every(2*simnet.Millisecond, func() bool {
		h.Send(7, 42, core.PullReq{})
		sent++
		return sent < turns
	})
	drive(t, h)

	waitFor(t, 10*time.Second, func() bool { return rx.Load() == turns }, "every turn's frame to arrive")
	c := client.Counters()
	if n := client.deadlineDatagrams.Load(); n != 0 || c.TxDatagrams == 0 {
		t.Fatalf("%d of %d datagrams written by the deadline goroutine, want 0", n, c.TxDatagrams)
	}
	if got := m.FlushWait.Count(); got != c.TxDatagrams {
		t.Fatalf("flush-wait histogram has %d observations for %d datagrams", got, c.TxDatagrams)
	}
}

// seqSink is a receiving transport that checks per-sender sequence numbers:
// senders put theirs into RelayMsg.Topic.
type seqSink struct {
	mu   sync.Mutex
	next map[simnet.NodeID]uint64 // per from id, the sequence number expected next
	bad  int                      // frames that were not the next of their sender: lost, repeated or reordered
}

func newSeqSink(t *testing.T, id simnet.NodeID) (*UDP, *seqSink) {
	t.Helper()
	u := listenTestUDP(t)
	u.Attach(id)
	s := &seqSink{next: make(map[simnet.NodeID]uint64)}
	u.SetReceiver(func(from, to simnet.NodeID, msg simnet.Message) {
		seq := uint64(msg.(core.RelayMsg).Topic)
		s.mu.Lock()
		if seq != s.next[from] {
			s.bad++
		}
		s.next[from] = seq + 1
		s.mu.Unlock()
	})
	return u, s
}

func (s *seqSink) received(from simnet.NodeID) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next[from]
}

func (s *seqSink) outOfSequence() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bad
}

// sendSeq sends frames 0..n-1 from `from` to `to`, never more than window
// ahead of the sink, so the loopback socket buffer cannot overflow and
// "exactly once" is a fair demand.
func sendSeq(t *testing.T, u *UDP, s *seqSink, from, to simnet.NodeID, n, window uint64) {
	for seq := uint64(0); seq < n; seq++ {
		deadline := time.Now().Add(10 * time.Second)
		for s.received(from)+window <= seq {
			if time.Now().After(deadline) {
				t.Errorf("sender %d stuck at %d: sink has %d", from, seq, s.received(from))
				return
			}
			runtime.Gosched()
		}
		if err := u.Send(from, to, core.RelayMsg{Topic: core.TopicID(seq), Origin: from, TTL: 1}); err != nil {
			t.Errorf("Send: %v", err)
			return
		}
	}
}

// TestUDPConcurrentSendAndFlush has 8 goroutines send to two peers while
// two more call Flush in a loop and the deadline goroutine runs: every frame
// arrives exactly once, and those of one (sender, peer) pair in order.
func TestUDPConcurrentSendAndFlush(t *testing.T) {
	const senders, perSender = 8, 200
	peers := [2]simnet.NodeID{2, 3}
	var sinks [2]*seqSink
	client := listenTestUDP(t)
	for i, id := range peers {
		var u *UDP
		u, sinks[i] = newSeqSink(t, id)
		setPeer(t, client, id, u.LocalAddr().String())
	}

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
		for i, id := range peers {
			wg.Add(1)
			go func(from, to simnet.NodeID, s *seqSink) {
				defer wg.Done()
				sendSeq(t, client, s, from, to, perSender, 8)
			}(simnet.NodeID(100+g), id, sinks[i])
		}
	}
	wg.Wait()
	close(stop)
	flushers.Wait()

	for i, s := range sinks {
		for g := 0; g < senders; g++ {
			from := simnet.NodeID(100 + g)
			waitFor(t, 5*time.Second, func() bool { return s.received(from) == perSender }, "the last frames to arrive")
		}
		if n := s.outOfSequence(); n > 0 {
			t.Errorf("peer %d: %d frames out of sequence", peers[i], n)
		}
	}
	if c := client.Counters(); c.TxFrames != senders*perSender*2 || c.TxDropped != 0 {
		t.Errorf("TxFrames=%d TxDropped=%d, want %d and 0", c.TxFrames, c.TxDropped, senders*perSender*2)
	}
}

// TestUDPSendRacingTeardown reaps the peer's queue as fast as it can while
// a sender keeps using it: every frame still arrives once and in order,
// whichever side of a teardown its Send fell on.
func TestUDPSendRacingTeardown(t *testing.T) {
	server, sink := newSeqSink(t, 42)
	client := listenTestUDP(t)
	setPeer(t, client, 42, server.LocalAddr().String())

	stop := make(chan struct{})
	var reaper sync.WaitGroup
	reaper.Add(1)
	go func() {
		defer reaper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				client.reapOnce(time.Now().Add(2 * idleTimeout)) // every empty queue is idle
				runtime.Gosched()
			}
		}
	}()
	const frames = 500
	sendSeq(t, client, sink, 7, 42, frames, 4)
	close(stop)
	reaper.Wait()

	waitFor(t, 5*time.Second, func() bool { return sink.received(7) == frames }, "the last frames to arrive")
	if n := sink.outOfSequence(); n > 0 {
		t.Fatalf("%d frames out of sequence", n)
	}
	if c := client.Counters(); c.TxFrames != frames || c.TxDropped != 0 {
		t.Fatalf("TxFrames=%d TxDropped=%d, want %d and 0", c.TxFrames, c.TxDropped, frames)
	}
}

// TestUDPPeersCostNoGoroutines checks the transport's goroutine count does
// not depend on how many peers it talks to.
func TestUDPPeersCostNoGoroutines(t *testing.T) {
	sink := listenTestUDP(t)
	client := listenTestUDP(t)
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

// TestUDPFlushZeroAlloc pins the writer's hot path: sending to warm queues
// and flushing them allocates nothing — not for the dirty list, the buffer
// swap, the envelope, the deadline timer or the socket address.
func TestUDPFlushZeroAlloc(t *testing.T) {
	// Nobody reads the sink: a receiving transport's decoding would run
	// alongside the measurement and be counted in it.
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() })
	client, _ := countingUDP(t, 7, time.Hour)
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
	for i := 0; i < peers+2; i++ { // every buffer in the rotation has been every queue's
		turn()
	}
	if allocs := testing.AllocsPerRun(100, turn); allocs != 0 {
		t.Fatalf("a turn of %d sends and a Flush costs %v allocs, want 0", peers, allocs)
	}
}

// TestUDPHandleDatagramAllocs pins the receive path: a steady-state datagram
// from a known peer costs the transport nothing on top of decoding its frame.
func TestUDPHandleDatagramAllocs(t *testing.T) {
	a, _ := countingUDP(t, 1, flushInterval)
	b, rx := countingUDP(t, 2, flushInterval)
	src := a.LocalAddr().AddrPort()
	setPeer(t, b, 1, src.String())

	frame, err := wire.Encode(1, 2, core.RelayMsg{Topic: 9, Origin: 1, TTL: 1})
	if err != nil {
		t.Fatal(err)
	}
	batch := append([]byte{byte(len(frame) >> 8), byte(len(frame))}, frame...)
	a.mu.Lock()
	dgram := a.appendEnvelopeLocked(nil, flagFrame, batch, 1, nil)
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

// TestUDPCloseFlushes checks shutdown loses nothing silently: frames sent
// before Close are written by its final Flush, not dropped with the queues.
func TestUDPCloseFlushes(t *testing.T) {
	const frames = 50
	server, rx := countingUDP(t, 42, flushInterval)
	client, _ := countingUDP(t, 7, time.Hour)
	setPeer(t, client, 42, server.LocalAddr().String())
	for i := 0; i < frames; i++ {
		if err := client.Send(7, 42, core.PullReq{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return rx.Load() == frames }, "the frames sent before Close")
	if c := client.Counters(); c.TxDropped != 0 || c.Queues != 0 || c.Goroutines != 0 {
		t.Fatalf("after Close: %+v, want nothing dropped, no queue, no goroutine", c)
	}
}

// TestUDPSendRacingCloseIsCounted checks the other half: a frame accepted by
// a Send that raced Close was either written or counted as dropped.
func TestUDPSendRacingCloseIsCounted(t *testing.T) {
	server, rx := countingUDP(t, 42, flushInterval)
	client, _ := countingUDP(t, 7, flushInterval)
	setPeer(t, client, 42, server.LocalAddr().String())

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
				time.Sleep(100 * time.Microsecond) // keep the receiver's socket buffer shallow
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	client.Close()
	wg.Wait()

	c := client.Counters()
	waitFor(t, 5*time.Second, func() bool { return rx.Load()+c.TxDropped == c.TxFrames }, "every accepted frame to arrive or be counted")
	if depth := client.tel.QueueDepth.Value(); depth != 0 {
		t.Fatalf("queue depth gauge reads %d after Close, want 0", depth)
	}
}
