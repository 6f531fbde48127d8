package ring

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"vitis/internal/idspace"
	"vitis/internal/tman"
)

func TestHarmonicDistanceRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		d := HarmonicDistance(rng, 10000)
		if d < 1 {
			t.Fatalf("distance %d below 1", d)
		}
	}
}

func TestHarmonicDistanceFavorsShort(t *testing.T) {
	// Roughly half the draws should land below sqrt(1/N)·ring ≈
	// N^(-1/2)·2^64 (u < 0.5 maps there).
	rng := rand.New(rand.NewSource(2))
	const n = 10000
	threshold := uint64(math.Pow(float64(n), -0.5) * math.Pow(2, 64))
	short := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		if HarmonicDistance(rng, n) < threshold {
			short++
		}
	}
	frac := float64(short) / draws
	if math.Abs(frac-0.5) > 0.05 {
		t.Errorf("fraction of short links %g, want ~0.5", frac)
	}
}

func TestHarmonicDistanceDegenerateN(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		if d := HarmonicDistance(rng, 0); d < 1 {
			t.Fatal("degenerate N should still give valid distances")
		}
	}
}

func descs(ids ...NodeID) []tman.Descriptor {
	out := make([]tman.Descriptor, len(ids))
	for i, id := range ids {
		out[i] = tman.Descriptor{ID: id}
	}
	return out
}

func slotIDs(s *Slots) []NodeID {
	var out []NodeID
	for _, d := range s.Selected() {
		out = append(out, d.ID)
	}
	return out
}

// TestSlotsRingPicksSuccessorThenPredecessor: around self=1000, 1100 is
// the successor and 900 the predecessor, in that slot order, and neither
// slot reuses a taken candidate.
func TestSlotsRingPicksSuccessorThenPredecessor(t *testing.T) {
	var s Slots
	s.Reset()
	s.Ring(1000, descs(900, 5000, 1100, 200))
	if got := slotIDs(&s); !slices.Equal(got, []NodeID{1100, 900}) {
		t.Fatalf("ring slots %v, want [1100 900]", got)
	}
	// With one candidate it is the successor, and the predecessor slot
	// stays empty rather than taking it twice.
	s.Reset()
	s.Ring(1000, descs(900))
	if got := slotIDs(&s); !slices.Equal(got, []NodeID{900}) {
		t.Fatalf("single-candidate ring slots %v, want [900]", got)
	}
	if !s.Taken(900) || s.Taken(1100) || s.Len() != 1 {
		t.Error("Reset did not clear the previous selection")
	}
}

// TestSlotsSmallWorldDrawsEvenWhenEmpty pins the random stream: every
// SmallWorld call consumes exactly one draw, found or not, so a caller's
// loop shape decides how many draws a selection costs.
func TestSlotsSmallWorldDrawsEvenWhenEmpty(t *testing.T) {
	var s Slots
	s.Reset()
	rng := rand.New(rand.NewSource(9))
	ref := rand.New(rand.NewSource(9))
	buffer := descs(10, 20)
	for i := 0; i < 4; i++ {
		got := s.SmallWorld(rng, 1000, 64, buffer)
		HarmonicDistance(ref, 64)
		if got != (i < 2) {
			t.Fatalf("call %d found=%v with %d candidates left", i, got, 2-min(i, 2))
		}
	}
	if rng.Int63() != ref.Int63() {
		t.Error("SmallWorld consumed a different number of draws than HarmonicDistance")
	}
	if got := slotIDs(&s); len(got) != 2 || got[0] == got[1] {
		t.Errorf("small-world slots %v, want both candidates once", got)
	}
}

// TestSlotsSmallWorldTakesClosestToTarget: with a fixed seed, the slot is
// the untaken candidate at minimal ring distance from self plus the draw.
func TestSlotsSmallWorldTakesClosestToTarget(t *testing.T) {
	var buffer []tman.Descriptor
	for i := 0; i < 40; i++ {
		buffer = append(buffer, tman.Descriptor{ID: idspace.HashUint64(uint64(i))})
	}
	const self = NodeID(1 << 40)
	var s Slots
	s.Reset()
	rng := rand.New(rand.NewSource(4))
	target := self + idspace.ID(HarmonicDistance(rand.New(rand.NewSource(4)), 100))
	s.SmallWorld(rng, self, 100, buffer)
	got := s.Selected()[0].ID
	for _, d := range buffer {
		if idspace.Distance(d.ID, target) < idspace.Distance(got, target) {
			t.Fatalf("took %v but %v is closer to the drawn target", got, d.ID)
		}
	}
}

func TestNextHopIsStrictlyCloser(t *testing.T) {
	rt := descs(100, 400, 700)
	if next, ok := NextHop(500, rt, 390); !ok || next != 400 {
		t.Errorf("NextHop toward 390 = %v,%v; want 400", next, ok)
	}
	// Self is closest: the lookup ends here.
	if _, ok := NextHop(500, rt, 520); ok {
		t.Error("NextHop left the closest node")
	}
	if _, ok := NextHop(500, nil, 1); ok {
		t.Error("NextHop over an empty table found a hop")
	}
}

func TestFanoutSortsDedupsAndExcludes(t *testing.T) {
	got := Fanout([]NodeID{30, 10, 20, 10, 5, 30}, 20, 5)
	if !slices.Equal(got, []NodeID{10, 30}) {
		t.Errorf("Fanout = %v, want [10 30]", got)
	}
	if got := Fanout(nil, 1, 2); len(got) != 0 {
		t.Errorf("Fanout(nil) = %v", got)
	}
}

// TestSlotsAllocFree: after warm-up a selection runs entirely in the
// reusable buffers.
func TestSlotsAllocFree(t *testing.T) {
	var buffer []tman.Descriptor
	for i := 0; i < 32; i++ {
		buffer = append(buffer, tman.Descriptor{ID: idspace.HashUint64(uint64(i))})
	}
	var s Slots
	rng := rand.New(rand.NewSource(1))
	run := func() {
		s.Reset()
		s.Ring(1<<40, buffer)
		for s.Len() < 15 && s.SmallWorld(rng, 1<<40, 1024, buffer) {
		}
	}
	run()
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Errorf("a warm selection allocates %.2f objects, want 0", avg)
	}
}
