package sampling

import (
	"testing"

	"vitis/internal/idspace"
	"vitis/internal/simnet"
)

// buildCluster creates n sampling services wired to one network, each
// bootstrapped with a few ring-adjacent peers, and starts them.
func buildCluster(t *testing.T, n int) (*simnet.Engine, []*Service, []simnet.NodeID) {
	t.Helper()
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.UniformLatency{Min: 10, Max: 80})
	ids := make([]simnet.NodeID, n)
	for i := range ids {
		ids[i] = idspace.HashUint64(uint64(i))
	}
	services := make([]*Service, n)
	for i := range ids {
		var boot []simnet.NodeID
		for j := 1; j <= 3; j++ {
			boot = append(boot, ids[(i+j)%n])
		}
		svc := New(net, ids[i], Config{}, boot, eng.DeriveRNG(int64(i)))
		svc.viewSize = 10
		services[i] = svc
		net.Attach(ids[i], simnet.HandlerFunc(func(from simnet.NodeID, msg simnet.Message) {
			svc.HandleMessage(from, msg)
		}))
		svc.Start()
	}
	return eng, services, ids
}

func TestViewFillsUp(t *testing.T) {
	eng, services, _ := buildCluster(t, 30)
	eng.RunUntil(30 * simnet.Second)
	for i, s := range services {
		if len(s.View()) < 10 {
			t.Errorf("node %d view has %d entries, want 10", i, len(s.View()))
		}
	}
}

func TestViewNeverContainsSelf(t *testing.T) {
	eng, services, ids := buildCluster(t, 20)
	eng.RunUntil(20 * simnet.Second)
	for i, s := range services {
		for _, d := range s.View() {
			if d.ID == ids[i] {
				t.Fatalf("node %d has itself in view", i)
			}
		}
	}
}

func TestViewSizeBounded(t *testing.T) {
	eng, services, _ := buildCluster(t, 40)
	eng.RunUntil(60 * simnet.Second)
	for i, s := range services {
		if len(s.View()) > 10 {
			t.Errorf("node %d view exceeds bound: %d", i, len(s.View()))
		}
	}
}

func TestSamplesSpreadAcrossNetwork(t *testing.T) {
	// After enough gossip, the union of views should cover most of the
	// network even though each node bootstrapped with only 3 ring
	// neighbors.
	eng, services, _ := buildCluster(t, 30)
	eng.RunUntil(60 * simnet.Second)
	distinct := map[simnet.NodeID]bool{}
	for _, s := range services {
		for _, d := range s.View() {
			distinct[d.ID] = true
		}
	}
	if len(distinct) < 25 {
		t.Errorf("views cover only %d of 30 nodes", len(distinct))
	}
}

func TestSampleBounds(t *testing.T) {
	eng, services, _ := buildCluster(t, 10)
	eng.RunUntil(10 * simnet.Second)
	s := services[0]
	if got := s.Sample(3); len(got) != 3 {
		t.Errorf("Sample(3) returned %d ids", len(got))
	}
	all := s.Sample(1000)
	if len(all) != len(s.View()) {
		t.Errorf("oversized sample should return whole view: %d vs %d", len(all), len(s.View()))
	}
}

func TestSampleDistinct(t *testing.T) {
	eng, services, _ := buildCluster(t, 20)
	eng.RunUntil(30 * simnet.Second)
	got := services[0].Sample(8)
	seen := map[simnet.NodeID]bool{}
	for _, id := range got {
		if seen[id] {
			t.Fatalf("duplicate id in sample")
		}
		seen[id] = true
	}
}

func TestDeadNodeFadesFromViews(t *testing.T) {
	eng, services, ids := buildCluster(t, 20)
	eng.RunUntil(20 * simnet.Second)
	// Kill node 0.
	services[0].Stop()
	// Detach from network so its messages bounce.
	// (buildCluster attached via closure; reach the network through a
	// fresh handler-less detach using the engine is not possible, so we
	// emulate death by Stop: it no longer gossips or replies.)
	eng.RunUntil(120 * simnet.Second)
	holders := 0
	for _, s := range services[1:] {
		for _, d := range s.View() {
			if d.ID == ids[0] {
				holders++
				break
			}
		}
	}
	// Stale descriptors keep ageing; most views should have evicted the
	// dead node in favour of fresher ones.
	if holders > 5 {
		t.Errorf("%d of 19 views still hold the dead node after 100s", holders)
	}
}

func TestStoppedServiceIgnoresMessages(t *testing.T) {
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(1))
	s := New(net, 1, Config{}, []simnet.NodeID{2}, eng.DeriveRNG(1))
	s.Stop()
	if !s.Stopped() {
		t.Fatal("Stopped() should be true")
	}
	before := len(s.View())
	s.HandleMessage(2, Request{View: []Descriptor{{ID: 3}}})
	if len(s.View()) != before {
		t.Error("stopped service merged a view")
	}
}

func TestHandleMessageRejectsForeign(t *testing.T) {
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(1))
	s := New(net, 1, Config{}, nil, eng.DeriveRNG(1))
	if s.HandleMessage(2, "unrelated") {
		t.Error("foreign message claimed as handled")
	}
}

func TestBootstrapExcludesSelf(t *testing.T) {
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(1))
	s := New(net, 7, Config{}, []simnet.NodeID{7, 8}, eng.DeriveRNG(1))
	for _, d := range s.View() {
		if d.ID == 7 {
			t.Fatal("bootstrap self entry not filtered")
		}
	}
}

func TestMergeKeepsFreshest(t *testing.T) {
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(1))
	s := New(net, 1, Config{}, nil, eng.DeriveRNG(1))
	s.viewSize = 4
	s.merge([]Descriptor{{ID: 5, Age: 9}})
	s.merge([]Descriptor{{ID: 5, Age: 2}})
	v := s.View()
	if len(v) != 1 || v[0].Age != 2 {
		t.Errorf("view = %v, want single age-2 entry", v)
	}
	// Older information about a known id must not regress freshness.
	s.merge([]Descriptor{{ID: 5, Age: 7}})
	if got := s.View()[0].Age; got != 2 {
		t.Errorf("age regressed to %d", got)
	}
}

func TestMergeEvictsOldestWhenFull(t *testing.T) {
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(1))
	s := New(net, 1, Config{}, nil, eng.DeriveRNG(1))
	s.viewSize = 2
	s.merge([]Descriptor{{ID: 10, Age: 5}, {ID: 11, Age: 1}, {ID: 12, Age: 3}})
	v := s.View()
	if len(v) != 2 {
		t.Fatalf("view size %d, want 2", len(v))
	}
	for _, d := range v {
		if d.ID == 10 {
			t.Error("oldest descriptor survived truncation")
		}
	}
}
