package bootstrap

import (
	"testing"

	"vitis/internal/simnet"
)

func setup(t *testing.T, cfg Config) (*simnet.Engine, *simnet.Network, *Service) {
	t.Helper()
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(5))
	bs := New(net, 1, cfg)
	net.Attach(1, simnet.HandlerFunc(bs.Deliver))
	return eng, net, bs
}

// join sends a JoinReq from id and returns the response peers.
func join(t *testing.T, eng *simnet.Engine, net *simnet.Network, id simnet.NodeID, want int) []simnet.NodeID {
	t.Helper()
	var got []simnet.NodeID
	responded := false
	net.Attach(id, simnet.HandlerFunc(func(from simnet.NodeID, msg simnet.Message) {
		if r, ok := msg.(JoinResp); ok {
			got = r.Peers
			responded = true
		}
	}))
	net.Send(id, 1, JoinReq{Want: want})
	eng.RunUntil(eng.Now() + simnet.Second)
	if !responded {
		t.Fatalf("node %v got no JoinResp", id)
	}
	return got
}

func TestFirstJoinerGetsEmptyList(t *testing.T) {
	eng, net, _ := setup(t, Config{})
	peers := join(t, eng, net, 100, 3)
	if len(peers) != 0 {
		t.Errorf("first joiner got peers %v", peers)
	}
}

func TestLaterJoinersGetPeers(t *testing.T) {
	eng, net, bs := setup(t, Config{})
	join(t, eng, net, 100, 3)
	join(t, eng, net, 101, 3)
	peers := join(t, eng, net, 102, 3)
	if len(peers) != 2 {
		t.Errorf("third joiner got %v, want both predecessors", peers)
	}
	if bs.Size() != 3 {
		t.Errorf("registry size %d, want 3", bs.Size())
	}
}

func TestSampleExcludesAsker(t *testing.T) {
	eng, net, _ := setup(t, Config{})
	join(t, eng, net, 100, 3)
	peers := join(t, eng, net, 100, 3) // re-join
	for _, p := range peers {
		if p == 100 {
			t.Error("asker handed itself")
		}
	}
}

func TestSampleBoundedByWant(t *testing.T) {
	eng, net, _ := setup(t, Config{})
	for i := simnet.NodeID(100); i < 120; i++ {
		join(t, eng, net, i, 3)
	}
	peers := join(t, eng, net, 200, 5)
	if len(peers) != 5 {
		t.Errorf("got %d peers, want 5", len(peers))
	}
}

// TestSampleBoundedByMaxWant: a JoinReq asking for more peers than maxWant,
// as a hostile datagram may, gets exactly maxWant of them.
func TestSampleBoundedByMaxWant(t *testing.T) {
	eng, net, _ := setup(t, Config{Lease: simnet.Hour})
	for i := simnet.NodeID(100); i < 100+maxWant+8; i++ {
		join(t, eng, net, i, 3)
	}
	if peers := join(t, eng, net, 200, 1<<30); len(peers) != maxWant {
		t.Errorf("got %d peers, want maxWant = %d", len(peers), maxWant)
	}
}

func TestWantZeroUsesDefault(t *testing.T) {
	eng, net, _ := setup(t, Config{DefaultWant: 2})
	for i := simnet.NodeID(100); i < 110; i++ {
		join(t, eng, net, i, 3)
	}
	peers := join(t, eng, net, 200, 0)
	if len(peers) != 2 {
		t.Errorf("got %d peers, want the default 2", len(peers))
	}
}

func TestRegistrationExpires(t *testing.T) {
	eng, net, bs := setup(t, Config{Lease: 5 * simnet.Second})
	join(t, eng, net, 100, 3)
	if bs.Size() != 1 {
		t.Fatalf("size %d", bs.Size())
	}
	eng.RunUntil(eng.Now() + 10*simnet.Second)
	if bs.Size() != 0 {
		t.Errorf("registration survived lease: size %d", bs.Size())
	}
}

func TestAnnounceRefreshesLease(t *testing.T) {
	eng, net, bs := setup(t, Config{Lease: 5 * simnet.Second})
	join(t, eng, net, 100, 3)
	for i := 0; i < 4; i++ {
		eng.RunUntil(eng.Now() + 3*simnet.Second)
		net.Send(100, 1, Announce{})
		eng.RunUntil(eng.Now() + simnet.Second)
	}
	if bs.Size() != 1 {
		t.Errorf("announced node expired: size %d", bs.Size())
	}
}

func TestRegistryBounded(t *testing.T) {
	eng, net, bs := setup(t, Config{MaxPeers: 5})
	for i := simnet.NodeID(100); i < 120; i++ {
		join(t, eng, net, i, 3)
	}
	if bs.Size() > 5 {
		t.Errorf("registry grew to %d, bound 5", bs.Size())
	}
	_ = eng
}

func TestWireSizes(t *testing.T) {
	if (JoinReq{}).WireSize() != 4 {
		t.Error("JoinReq size")
	}
	if (JoinResp{Peers: make([]simnet.NodeID, 3)}).WireSize() != 26 {
		t.Error("JoinResp size")
	}
	if (Announce{}).WireSize() != 1 {
		t.Error("Announce size")
	}
}
