package ring

import (
	"slices"
	"testing"

	"vitis/internal/simnet"
	"vitis/internal/tman"
)

// TestLivenessEvictsAfterStaleAge: an unanswered neighbor survives
// StaleAge beats and is evicted on the next, in table order and exactly
// once; answered neighbors are heartbeated every beat.
func TestLivenessEvictsAfterStaleAge(t *testing.T) {
	const period = simnet.Second
	l := NewLiveness(period)
	xchg := tman.New(nil, 1, period, tman.Callbacks{}, descs(10, 20, 30), nil)
	var alive, evicted []NodeID
	for beat := 1; beat <= StaleAge+1; beat++ {
		alive, evicted = alive[:0], evicted[:0]
		l.Heard(20)
		l.Beat(xchg, simnet.Time(beat)*period,
			func(id NodeID) { evicted = append(evicted, id) },
			func(id NodeID) { alive = append(alive, id) })
		if beat <= StaleAge && len(evicted) != 0 {
			t.Fatalf("beat %d evicted %v before StaleAge", beat, evicted)
		}
	}
	if !slices.Equal(evicted, []NodeID{10, 30}) || !slices.Equal(alive, []NodeID{20}) {
		t.Fatalf("beat StaleAge+1: evicted %v alive %v; want [10 30] and [20]", evicted, alive)
	}
	if xchg.Contains(10) || xchg.Contains(30) || !xchg.Contains(20) {
		t.Error("evicted neighbors not removed from the table")
	}
	if l.Age(10) != 0 || l.Age(20) != 1 {
		t.Errorf("ages after eviction: 10→%d 20→%d; want 0 and 1", l.Age(10), l.Age(20))
	}
}

// TestLivenessTombstoneLastsThreeStaleAges: an evicted peer is suspected
// for 3×StaleAge heartbeat periods, filtered out of selection buffers
// meanwhile, and forgiven early when it speaks.
func TestLivenessTombstoneLastsThreeStaleAges(t *testing.T) {
	const period = simnet.Second
	l := NewLiveness(period)
	l.Suspect(10, 100)
	l.Suspect(20, 100)
	until := 100 + 3*StaleAge*period
	if !l.Suspected(10, until-1) || l.Suspected(10, until) {
		t.Error("tombstone not in force for exactly 3×StaleAge periods")
	}
	if got := l.DropSuspects(descs(5, 10, 20, 25), 100); len(got) != 2 || got[0].ID != 5 || got[1].ID != 25 {
		t.Errorf("DropSuspects kept %v", got)
	}
	l.Unsuspect(20)
	if l.Suspected(20, 100) {
		t.Error("a peer that spoke is still suspected")
	}
	// Beat drops tombstones that ran out.
	l.Beat(tman.New(nil, 1, period, tman.Callbacks{}, nil, nil), until, nil, nil)
	if _, ok := l.suspects[10]; ok {
		t.Error("expired tombstone kept")
	}
}

// TestLivenessPrunesAgesOfDepartedPeers: a peer heard outside the table
// (RVR's Pong) or removed from it by gossip leaves no age behind.
func TestLivenessPrunesAgesOfDepartedPeers(t *testing.T) {
	l := NewLiveness(simnet.Second)
	xchg := tman.New(nil, 1, simnet.Second, tman.Callbacks{}, descs(10, 20), nil)
	l.Heard(99)
	l.Beat(xchg, 1, nil, func(NodeID) {})
	xchg.Remove(20)
	l.Beat(xchg, 2, nil, func(NodeID) {})
	if _, ok := l.ages[99]; ok {
		t.Error("age of a peer never in the table kept")
	}
	if _, ok := l.ages[20]; ok {
		t.Error("age of a peer gossip removed from the table kept")
	}
	if l.Age(10) != 2 {
		t.Errorf("age of a table member = %d, want 2", l.Age(10))
	}
}
