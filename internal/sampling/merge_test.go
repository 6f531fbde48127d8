package sampling

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"vitis/internal/simnet"
)

// mergeSorted is the view merge as it was before the sort-free walk: append
// the incoming descriptors, sort the union by (id, age), keep the first of
// each id, sort by (age, id) and truncate. It is the reference merge must
// match.
func (s *Service) mergeSorted(incoming []Descriptor) {
	view := slices.Clone(s.view)
	for _, d := range incoming {
		if d.ID != s.self {
			view = append(view, d)
		}
	}
	slices.SortFunc(view, func(a, b Descriptor) int {
		return cmp.Or(cmp.Compare(a.ID, b.ID), cmp.Compare(a.Age, b.Age))
	})
	view = slices.CompactFunc(view, func(a, b Descriptor) bool { return a.ID == b.ID })
	slices.SortFunc(view, func(a, b Descriptor) int {
		return cmp.Or(cmp.Compare(a.Age, b.Age), cmp.Compare(a.ID, b.ID))
	})
	s.view = view
	s.truncate()
}

// twinServices returns two services for the same node and bootstrap list,
// on separate engines with the same seed.
func twinServices(self simnet.NodeID, boot []simnet.NodeID, viewSize int) (*Service, *Service) {
	mk := func() *Service {
		eng := simnet.NewEngine(7)
		net := simnet.NewNetwork(eng, simnet.ConstantLatency(simnet.Lost))
		s := New(net, self, Config{}, boot, eng.DeriveRNG(1))
		s.viewSize = viewSize
		return s
	}
	return mk(), mk()
}

// randomView is a list of up to 30 descriptors over a small id space (so
// ids repeat, within the list and against the view), with ages from 0 to
// 5, self among them at times, in (age, id) order or shuffled.
func randomView(rng *rand.Rand, self simnet.NodeID) []Descriptor {
	ds := make([]Descriptor, rng.Intn(31))
	for i := range ds {
		ds[i] = Descriptor{ID: simnet.NodeID(1 + rng.Intn(40)), Age: rng.Intn(6)}
		if rng.Intn(15) == 0 {
			ds[i].ID = self
		}
	}
	if rng.Intn(2) == 0 {
		slices.SortFunc(ds, byAge)
	}
	return ds
}

// TestSamplingMergeMatchesSort drives twin services through random
// sequences of merges, ticks and samples, one merging by the sort-free walk
// and one by mergeSorted, and requires the same view, in the same order,
// after every step. The bootstrap view is in caller order with duplicate
// ids, incoming lists are sorted or not and carry age-0 entries, copies of
// self and duplicates, and the view size is shrunk at times.
func TestSamplingMergeMatchesSort(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const self = simnet.NodeID(17)
		var boot []simnet.NodeID
		for range rng.Intn(25) {
			boot = append(boot, simnet.NodeID(1+rng.Intn(40)))
		}
		viewSize := ViewSize
		if rng.Intn(3) == 0 {
			viewSize = 1 + rng.Intn(ViewSize)
		}
		a, b := twinServices(self, boot, viewSize)
		// Until its first merge the view is the bootstrap list in caller
		// order: tick picks its peer from it by index.
		var want []Descriptor
		for _, id := range boot {
			if id != self && len(want) < ViewSize {
				want = append(want, Descriptor{ID: id})
			}
		}
		if !slices.Equal(a.view, want) {
			t.Fatalf("seed %d: bootstrap view %v, want %v", seed, a.view, want)
		}
		for step := 0; step < 20; step++ {
			switch rng.Intn(4) {
			case 0:
				a.tick()
				b.tick()
			case 1:
				n := rng.Intn(ViewSize + 2)
				if got, want := a.Sample(n), b.Sample(n); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: Sample(%d) = %v, want %v", seed, step, n, got, want)
				}
			default:
				in := randomView(rng, self)
				a.merge(slices.Clone(in))
				b.mergeSorted(in)
			}
			if !slices.Equal(a.view, b.view) {
				t.Fatalf("seed %d step %d: view\n got  %v\n want %v", seed, step, a.view, b.view)
			}
		}
	}
}

// TestMergeLeavesIncomingAlone: the incoming list belongs to the message,
// so merge neither reorders nor rewrites it, even when it is unsorted.
func TestMergeLeavesIncomingAlone(t *testing.T) {
	a, _ := twinServices(1, []simnet.NodeID{9, 3, 5}, ViewSize)
	in := []Descriptor{{ID: 8, Age: 3}, {ID: 1, Age: 0}, {ID: 4, Age: 1}, {ID: 8, Age: 0}}
	keep := slices.Clone(in)
	a.merge(in)
	if !slices.Equal(in, keep) {
		t.Errorf("merge rewrote its input: %v, was %v", in, keep)
	}
}

// TestSampleIntoMatchesPerm: a partial SampleInto returns the ids rand.Perm
// picks and leaves the RNG where Perm leaves it; a full one draws nothing.
func TestSampleIntoMatchesPerm(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var boot []simnet.NodeID
		for i := range rng.Intn(ViewSize + 1) {
			boot = append(boot, simnet.NodeID(100+i))
		}
		s, _ := twinServices(1, boot, ViewSize)
		ref := rand.New(rand.NewSource(seed))
		s.rng = rand.New(rand.NewSource(seed))
		var dst []simnet.NodeID
		for round := 0; round < 3; round++ {
			n := rng.Intn(len(s.view) + 2)
			dst = s.SampleInto(dst, n)
			var want []simnet.NodeID
			if n >= len(s.view) {
				for _, d := range s.view {
					want = append(want, d.ID)
				}
			} else {
				for _, i := range ref.Perm(len(s.view))[:n] {
					want = append(want, s.view[i].ID)
				}
			}
			if !slices.Equal(dst, want) {
				t.Fatalf("seed %d round %d: SampleInto(%d) = %v, want %v", seed, round, n, dst, want)
			}
			if got, want := s.rng.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d round %d: RNG state differs from rand.Perm's", seed, round)
			}
		}
	}
}

// TestExchangeAllocFree pins the steady state of the sampling exchange at
// zero allocations: merging a reply's view (sorted or not) into a full view
// and drawing a sample into a warm buffer. Only the outgoing view, the
// message itself, is allocated per exchange.
func TestExchangeAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	var boot []simnet.NodeID
	for i := range ViewSize {
		boot = append(boot, simnet.NodeID(100+i))
	}
	s, _ := twinServices(1, boot, ViewSize)
	rng := rand.New(rand.NewSource(1))
	replies := make([]simnet.Message, 8)
	for i := range replies {
		replies[i] = Reply{View: randomView(rng, 1)}
	}
	var dst []simnet.NodeID
	step := func() {
		for _, r := range replies {
			s.HandleMessage(2, r)
			dst = s.SampleInto(dst, SampleSize)
		}
	}
	step()
	if avg := testing.AllocsPerRun(50, step); avg != 0 {
		t.Errorf("merge and SampleInto allocate %.2f objects per run, want 0", avg)
	}
}
