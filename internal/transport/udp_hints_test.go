package transport

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"vitis/internal/core"
	"vitis/internal/simnet"
	"vitis/internal/wire"
)

// countingUDP opens a transport hosting id that counts the frames it
// receives; its deadline flush comes flushAfter after the first unflushed
// frame.
func countingUDP(t *testing.T, id simnet.NodeID, flushAfter time.Duration) (*UDP, *atomic.Uint64) {
	t.Helper()
	u, err := listenUDP("127.0.0.1:0", UDPConfig{}, flushAfter)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { u.Close() })
	u.Attach(id)
	rx := new(atomic.Uint64)
	u.SetReceiver(func(from, to simnet.NodeID, msg simnet.Message) { rx.Add(1) })
	return u, rx
}

// ageHints moves u's hint-ledger clock d forward, as if d had passed.
func ageHints(u *UDP, d time.Duration) {
	u.flushMu.Lock()
	u.start = u.start.Add(-d)
	u.flushMu.Unlock()
}

func setPeer(t *testing.T, u *UDP, id simnet.NodeID, addr string) {
	t.Helper()
	if err := u.SetPeer(id, addr); err != nil {
		t.Fatal(err)
	}
}

// sendAndWait sends one frame and waits until the receiver has counted n
// frames, so every frame travels in a datagram of its own.
func sendAndWait(t *testing.T, u *UDP, from, to simnet.NodeID, msg simnet.Message, rx *atomic.Uint64, n uint64) {
	t.Helper()
	if err := u.Send(from, to, msg); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return rx.Load() >= n }, "frame to arrive")
}

// TestUDPSteadyStateEnvelopeHasNoHints checks the envelope diet: once two
// peers have exchanged their first datagrams, 200 more datagrams whose
// frames keep mentioning a third node carry no address hint at all.
func TestUDPSteadyStateEnvelopeHasNoHints(t *testing.T) {
	a, rxA := countingUDP(t, 1, flushInterval)
	b, rxB := countingUDP(t, 2, flushInterval)
	setPeer(t, a, 2, b.LocalAddr().String())
	setPeer(t, a, 3, "127.0.0.1:9")
	setPeer(t, b, 1, a.LocalAddr().String())
	var msg simnet.Message = core.RelayMsg{Topic: 9, Origin: 3, TTL: 1}
	frame, err := wire.Encode(1, 2, msg)
	if err != nil {
		t.Fatal(err)
	}
	sendAndWait(t, a, 1, 2, msg, rxB, 1) // warm-up: b learns 3 here
	sendAndWait(t, b, 2, 1, msg, rxA, 1)

	a0, b0 := a.Counters(), b.Counters()
	for i := uint64(1); i <= 100; i++ {
		sendAndWait(t, a, 1, 2, msg, rxB, 1+i)
		sendAndWait(t, b, 2, 1, msg, rxA, 1+i)
	}
	const bare = 4 + 1 + 8*1 + 1 + 2 // header, one src id, no hints, frame count
	for name, d := range map[string][2]UDPCounters{"a": {a0, a.Counters()}, "b": {b0, b.Counters()}} {
		datagrams := d[1].TxDatagrams - d[0].TxDatagrams
		frames := d[1].TxFrames - d[0].TxFrames
		env := d[1].TxBytes - d[0].TxBytes - frames*uint64(2+len(frame))
		if datagrams != 100 || env > datagrams*bare {
			t.Errorf("%s: %d envelope bytes over %d datagrams, want 100 datagrams of at most %d", name, env, datagrams, bare)
		}
	}
}

// TestUDPHintRepeatInterval checks the ledger: an id mentioned to a peer
// twice within pendingTimeout/2 is hinted once, and again after that.
func TestUDPHintRepeatInterval(t *testing.T) {
	a, _ := countingUDP(t, 1, flushInterval)
	p, rx := countingUDP(t, 2, flushInterval)
	setPeer(t, a, 2, p.LocalAddr().String())
	setPeer(t, a, 3, "127.0.0.1:9")
	var msg simnet.Message = core.RelayMsg{Topic: 9, Origin: 3, TTL: 1}
	for i, want := range []uint64{1, 1, 2} {
		if i == 2 {
			ageHints(a, pendingTimeout/2)
		}
		sendAndWait(t, a, 1, 2, msg, rx, uint64(i+1))
		if got := a.tel.TxHints.Value(); got != want {
			t.Fatalf("after mention %d: %d hints sent, want %d", i+1, got, want)
		}
	}
}

// TestUDPLostFirstHintIsRepeated drops the datagram that carries the first
// hint for a node the receiver is holding a frame for. The sender keeps
// mentioning the node, so the hint is repeated after pendingTimeout/2 and
// the receiver's stash flushes before it ages out.
func TestUDPLostFirstHintIsRepeated(t *testing.T) {
	a, _ := countingUDP(t, 1, flushInterval)
	p, _ := countingUDP(t, 2, flushInterval)
	x, rxX := countingUDP(t, 3, flushInterval)

	// a reaches p only through a relay that loses the first hinting datagram.
	relay, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { relay.Close() })
	var lost atomic.Bool
	go func() {
		buf := make([]byte, maxDatagram)
		for {
			n, _, err := relay.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if e, err := parseEnvelope(buf[:n]); err == nil && e.nHints > 0 && lost.CompareAndSwap(false, true) {
				continue
			}
			relay.WriteToUDP(buf[:n], p.LocalAddr()) //nolint:errcheck // a lost datagram fails the test below
		}
	}()
	setPeer(t, a, 2, relay.LocalAddr().String())
	setPeer(t, a, 3, x.LocalAddr().String())

	if err := p.Send(2, 3, core.PullReq{}); err != nil { // p cannot reach 3 yet
		t.Fatal(err)
	}
	deadline, aged := time.Now().Add(pendingTimeout), false
	for rxX.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("p's frame for 3 still stashed after pendingTimeout: %+v", p.Counters())
		}
		if lost.Load() && !aged { // the first hint is gone: time for its repeat
			ageHints(a, pendingTimeout/2)
			aged = true
		}
		if err := a.Send(1, 2, core.RelayMsg{Topic: 9, Origin: 3, TTL: 1}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !lost.Load() {
		t.Fatal("the relay never saw a hinting datagram to lose")
	}
	if c := p.Counters(); c.TxDropped != 0 || c.TxPending != 0 {
		t.Fatalf("p: TxDropped=%d TxPending=%d, want 0 and 0", c.TxDropped, c.TxPending)
	}
	if got := a.tel.TxHints.Value(); got < 2 {
		t.Fatalf("a sent %d hints, want the lost one and its repeat", got)
	}
}

// TestUDPHintsPerDatagramBounded checks second-hand learning is capped: a
// datagram claiming 255 hints teaches maxHints of them and is counted as an
// error.
func TestUDPHintsPerDatagramBounded(t *testing.T) {
	server := listenTestUDP(t)
	dgram := []byte{'V', 'P', envVersion, 0, 0, 255}
	for i := 0; i < 255; i++ {
		dgram = appendU64(dgram, uint64(1000+i))
		dgram = append(dgram, 4, 127, 0, 0, 1, 0, 9)
	}
	dgram = append(dgram, 0, 0)
	sendRaw(t, server, dgram)
	waitFor(t, 5*time.Second, func() bool { return server.Counters().RxDatagrams == 1 }, "datagram to be handled")
	if c := server.Counters(); c.KnownPeers != maxHints || c.RxErrors != 1 {
		t.Fatalf("KnownPeers=%d RxErrors=%d, want %d and 1", c.KnownPeers, c.RxErrors, maxHints)
	}
}

// TestUDPUnknownVersionCounted checks datagrams of any envelope version but
// the current one (the retired version 1 included) are counted and dropped
// whole.
func TestUDPUnknownVersionCounted(t *testing.T) {
	server := listenTestUDP(t)
	for _, v := range []byte{1, 3} {
		dgram := []byte{'V', 'P', v, 0, 1}
		dgram = appendU64(dgram, 7)
		sendRaw(t, server, append(dgram, 0, 0, 0))
	}
	waitFor(t, 5*time.Second, func() bool { return server.Counters().RxErrors == 2 }, "both datagrams to be rejected")
	if c := server.Counters(); c.KnownPeers != 0 || c.RxDatagrams != 0 {
		t.Fatalf("rejected datagrams left a trace: %+v", c)
	}
}

func sendRaw(t *testing.T, to *UDP, dgram []byte) {
	t.Helper()
	conn, err := net.DialUDP("udp", nil, to.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(dgram); err != nil {
		t.Fatal(err)
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
		u, err := ListenUDP("127.0.0.1:0", UDPConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { u.Close() })
		us[i] = u
		hosts[i] = NewHost(simnet.NewEngine(int64(100+i)), u, nil)
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

	// The stash and hint timers run ten times faster than a node's: a stash
	// lives 1 s, 20 gossip rounds as at the paper's one-second period, so a
	// stuck one shows as TxDropped, and a lost hint is repeated after 0.5 s.
	last := time.Now()
	fastTimers := func() {
		now := time.Now()
		for _, u := range us {
			ageHints(u, 9*now.Sub(last))
			u.reapOnce(now.Add(pendingTimeout - time.Second))
		}
		last = now
	}
	for end := time.Now().Add(2 * time.Second); time.Now().Before(end); time.Sleep(50 * time.Millisecond) {
		fastTimers() // 40 gossip rounds
	}
	waitFor(t, 5*time.Second, func() bool {
		fastTimers()
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
