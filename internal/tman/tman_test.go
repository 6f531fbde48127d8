package tman

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"vitis/internal/idspace"
	"vitis/internal/sampling"
	"vitis/internal/simnet"
)

func TestDedup(t *testing.T) {
	ds := []Descriptor{{ID: 1}, {ID: 2}, {ID: 1, Payload: "late"}, {ID: 3}, {ID: 2}}
	out := appendUnique(nil, 3, ds)
	if len(out) != 2 {
		t.Fatalf("dedup kept %d entries: %v", len(out), out)
	}
	if out[0].ID != 1 || out[1].ID != 2 {
		t.Errorf("out = %v", out)
	}
	if out[0].Payload != nil {
		t.Error("dedup should keep the first occurrence's payload")
	}

	// Against a map reference on random inputs, including ids already in
	// dst and copies of self.
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{5, 50, 300} {
		for trial := 0; trial < 20; trial++ {
			dst := []Descriptor{{ID: 1}, {ID: 2}}
			src := make([]Descriptor, size)
			for i := range src {
				src[i] = Descriptor{ID: simnet.NodeID(rng.Intn(size)), Payload: i}
			}
			want := append([]Descriptor(nil), dst...)
			seen := map[simnet.NodeID]bool{1: true, 2: true, 7: true}
			for _, d := range src {
				if !seen[d.ID] {
					seen[d.ID] = true
					want = append(want, d)
				}
			}
			if got := appendUnique(dst, 7, src); !slices.Equal(got, want) {
				t.Fatalf("size %d: appendUnique = %v, want %v", size, got, want)
			}
		}
	}
}

func TestRemoveAndContains(t *testing.T) {
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(1))
	x := New(net, 9, simnet.Second, Callbacks{
		SelfDescriptor:  func() Descriptor { return Descriptor{ID: 9} },
		SelectNeighbors: func(b []Descriptor) []Descriptor { return b },
	}, []Descriptor{{ID: 1}, {ID: 2}}, eng.DeriveRNG(1))
	if !x.Contains(1) || x.Contains(5) {
		t.Error("Contains wrong")
	}
	if !x.Remove(1) {
		t.Error("Remove(1) should report true")
	}
	if x.Remove(1) {
		t.Error("double Remove should report false")
	}
	if x.Contains(1) {
		t.Error("1 still present after Remove")
	}
}

func TestUpdatePayload(t *testing.T) {
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(1))
	x := New(net, 9, simnet.Second, Callbacks{
		SelfDescriptor:  func() Descriptor { return Descriptor{ID: 9} },
		SelectNeighbors: func(b []Descriptor) []Descriptor { return b },
	}, []Descriptor{{ID: 1}}, eng.DeriveRNG(1))
	x.UpdatePayload(1, "profile")
	if x.RT()[0].Payload != "profile" {
		t.Error("payload not updated")
	}
	x.UpdatePayload(99, "ignored") // absent id: no-op
}

func TestBootstrapFiltersSelfAndDuplicates(t *testing.T) {
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(1))
	x := New(net, 9, simnet.Second, Callbacks{
		SelfDescriptor:  func() Descriptor { return Descriptor{ID: 9} },
		SelectNeighbors: func(b []Descriptor) []Descriptor { return b },
	}, []Descriptor{{ID: 9}, {ID: 1}, {ID: 1}}, eng.DeriveRNG(1))
	if len(x.RT()) != 1 || x.RT()[0].ID != 1 {
		t.Errorf("RT = %v", x.RT())
	}
}

// ringSelect keeps only the closest predecessor and successor — a miniature
// of Algorithm 4 sufficient to test convergence of the ring topology that
// lookup consistency depends on.
func ringSelect(self simnet.NodeID) func([]Descriptor) []Descriptor {
	return func(buffer []Descriptor) []Descriptor {
		var succ, pred *Descriptor
		for i := range buffer {
			d := buffer[i]
			if succ == nil || idspace.CWDistance(self, d.ID) < idspace.CWDistance(self, succ.ID) {
				dd := d
				succ = &dd
			}
			if pred == nil || idspace.CWDistance(d.ID, self) < idspace.CWDistance(pred.ID, self) {
				dd := d
				pred = &dd
			}
		}
		var out []Descriptor
		if succ != nil {
			out = append(out, *succ)
		}
		if pred != nil && (succ == nil || pred.ID != succ.ID) {
			out = append(out, *pred)
		}
		return out
	}
}

func TestRingConvergence(t *testing.T) {
	const n = 40
	eng := simnet.NewEngine(7)
	net := simnet.NewNetwork(eng, simnet.UniformLatency{Min: 10, Max: 60})

	ids := make([]simnet.NodeID, n)
	for i := range ids {
		ids[i] = idspace.HashUint64(uint64(i))
	}
	samplers := make([]*sampling.Service, n)
	exchangers := make([]*Exchanger, n)
	for i := range ids {
		i := i
		var boot []simnet.NodeID
		for j := 1; j <= 3; j++ {
			boot = append(boot, ids[(i+j)%n])
		}
		samplers[i] = sampling.New(net, ids[i], sampling.Config{}, boot, eng.DeriveRNG(int64(i)))
		cb := Callbacks{
			SelfDescriptor: func() Descriptor { return Descriptor{ID: ids[i]} },
			SampleNodes: func() []Descriptor {
				var out []Descriptor
				for _, id := range samplers[i].Sample(6) {
					out = append(out, Descriptor{ID: id})
				}
				return out
			},
			SelectNeighbors: ringSelect(ids[i]),
		}
		var bootDesc []Descriptor
		for _, id := range boot {
			bootDesc = append(bootDesc, Descriptor{ID: id})
		}
		exchangers[i] = New(net, ids[i], simnet.Second, cb, bootDesc, eng.DeriveRNG(1000+int64(i)))
		net.Attach(ids[i], simnet.HandlerFunc(func(from simnet.NodeID, msg simnet.Message) {
			if samplers[i].HandleMessage(from, msg) {
				return
			}
			exchangers[i].HandleMessage(from, msg)
		}))
		samplers[i].Start()
		exchangers[i].Start()
	}

	eng.RunUntil(60 * simnet.Second)

	// Verify every node found its true ring successor.
	sorted := append([]simnet.NodeID(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	trueSucc := map[simnet.NodeID]simnet.NodeID{}
	for i, id := range sorted {
		trueSucc[id] = sorted[(i+1)%len(sorted)]
	}
	bad := 0
	for i, x := range exchangers {
		found := false
		for _, d := range x.RT() {
			if d.ID == trueSucc[ids[i]] {
				found = true
				break
			}
		}
		if !found {
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d nodes lack their true successor after 60 rounds", bad, n)
	}
}

func TestHandleMessageRejectsForeign(t *testing.T) {
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(1))
	x := New(net, 1, simnet.Second, Callbacks{
		SelfDescriptor:  func() Descriptor { return Descriptor{ID: 1} },
		SelectNeighbors: func(b []Descriptor) []Descriptor { return b },
	}, nil, eng.DeriveRNG(1))
	if x.HandleMessage(2, 42) {
		t.Error("foreign message claimed as handled")
	}
}

func TestStoppedExchangerIgnoresMessages(t *testing.T) {
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(1))
	calls := 0
	x := New(net, 1, simnet.Second, Callbacks{
		SelfDescriptor:  func() Descriptor { return Descriptor{ID: 1} },
		SelectNeighbors: func(b []Descriptor) []Descriptor { calls++; return b },
	}, nil, eng.DeriveRNG(1))
	x.Stop()
	x.HandleMessage(2, Request{Buffer: []Descriptor{{ID: 3}}})
	x.HandleMessage(2, Reply{Buffer: []Descriptor{{ID: 3}}})
	if calls != 0 {
		t.Error("stopped exchanger ran selection")
	}
}

func TestRequestTriggersReplyAndSelection(t *testing.T) {
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(5))
	var replied simnet.Message
	net.Attach(2, simnet.HandlerFunc(func(from simnet.NodeID, msg simnet.Message) { replied = msg }))
	x := New(net, 1, simnet.Second, Callbacks{
		SelfDescriptor:  func() Descriptor { return Descriptor{ID: 1, Payload: "me"} },
		SelectNeighbors: func(b []Descriptor) []Descriptor { return b },
	}, []Descriptor{{ID: 5}}, eng.DeriveRNG(1))
	net.Attach(1, simnet.HandlerFunc(func(from simnet.NodeID, msg simnet.Message) { x.HandleMessage(from, msg) }))
	net.Send(2, 1, Request{Buffer: []Descriptor{{ID: 7}}})
	eng.RunUntil(simnet.Second)
	rep, ok := replied.(Reply)
	if !ok {
		t.Fatalf("no reply received, got %T", replied)
	}
	if len(rep.Buffer) == 0 || rep.Buffer[0].ID != 1 {
		t.Errorf("reply buffer should lead with self descriptor: %v", rep.Buffer)
	}
	if !x.Contains(7) {
		t.Error("incoming buffer entry not merged into RT")
	}
}

func TestForceSelect(t *testing.T) {
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(1))
	x := New(net, 1, simnet.Second, Callbacks{
		SelfDescriptor: func() Descriptor { return Descriptor{ID: 1} },
		SampleNodes: func() []Descriptor {
			return []Descriptor{{ID: 8}, {ID: 9}}
		},
		SelectNeighbors: func(b []Descriptor) []Descriptor { return b },
	}, nil, eng.DeriveRNG(1))
	x.ForceSelect()
	if !x.Contains(8) || !x.Contains(9) {
		t.Errorf("RT after ForceSelect: %v", x.RT())
	}
}
