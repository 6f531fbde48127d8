package main

import (
	"testing"
	"time"

	"vitis/internal/core"
)

const ms = int64(time.Millisecond)

// An open-loop generator's events are timed from when each tick was due,
// not from when it ran: a tick that runs late charges its lateness to the
// deliveries it causes, and the lateness itself is reported.
func TestOpenLoopLatenessAccounting(t *testing.T) {
	now := int64(0)
	// Topic 0 has subscribers 0, 1 and 2; node 3 subscribes to nothing.
	tr := newTracker(func() int64 { return now }, 4, [][]int{{0, 1, 2}})
	deliver := make([]func(core.NodeID, core.TopicID, core.EventID, int), 4)
	for i := range deliver {
		deliver[i], _ = tr.hooks(i)
	}
	// Node 0's driver started at harness time 1000 ms, so engine time e is
	// due at 1000 ms + e. The first tick (engine 10 ms) runs 2 ms late, the
	// second (20 ms) on time, which sharpens the start estimate, and the
	// third (30 ms) 3 ms late.
	evs := []core.EventID{{Publisher: 9, Seq: 0}, {Publisher: 9, Seq: 1}, {Publisher: 9, Seq: 2}}
	for i, tick := range []struct{ at, wall int64 }{{10, 1012 * ms}, {20, 1020 * ms}, {30, 1033 * ms}} {
		due := tr.calibrate(0, tick.wall, tick.at)
		if i == 2 && due != 1030*ms {
			t.Errorf("third tick due at %d, want %d", due, 1030*ms)
		}
		tr.published(0, evs[i], 0, tick.at, tick.wall, 0)
		now = tick.wall
		deliver[0](0, 0, evs[i], 0) // the publisher's own subscription
	}
	now = 1037 * ms
	deliver[1](0, 0, evs[2], 1) // 7 ms after the tick was due, 4 ms after it ran
	deliver[2](0, 0, evs[2], 2)
	deliver[1](0, 0, evs[2], 1)                              // repeated for one subscriber
	deliver[3](0, 0, evs[2], 1)                              // not a subscriber
	deliver[1](0, 0, core.EventID{Publisher: 9, Seq: 99}, 1) // no such publish

	tr.late = []bool{false, false, true, false}
	got := tr.collect(true)
	if got.published != 3 || got.expected != 9 || got.delivered != 5 || got.invalid != 2 || got.stray != 1 {
		t.Errorf("published %d expected %d delivered %d invalid %d stray %d, want 3 9 5 2 1",
			got.published, got.expected, got.delivered, got.invalid, got.stray)
	}
	// Lateness is taken against the final start estimate (1000 ms).
	wantLate := map[float64]bool{2: true, 0: true, 3: true}
	for _, l := range got.lateMs {
		if !wantLate[l] {
			t.Errorf("unexpected lateness %v ms in %v", l, got.lateMs)
		}
		delete(wantLate, l)
	}
	if len(wantLate) != 0 {
		t.Errorf("lateness %v misses %v", got.lateMs, wantLate)
	}
	// Node 2 is excluded from latency (a late starter); self-deliveries
	// never count; node 1's sample is timed from the due time.
	if len(got.lat) != 1 || got.lat[0] != 7 {
		t.Errorf("latency samples %v, want [7]", got.lat)
	}
	if got.hopSum != 3 || got.hopN != 2 {
		t.Errorf("hops %d over %d, want 3 over 2", got.hopSum, got.hopN)
	}
	// The records were drained: a second collect sees nothing.
	if again := tr.collect(true); again.published != 0 || again.delivered != 0 {
		t.Errorf("second collect saw %+v", again)
	}
}

func TestReadinessProbes(t *testing.T) {
	now := int64(0)
	tr := newTracker(func() int64 { return now }, 3, [][]int{{0, 1}, {1, 2}})
	deliver := make([]func(core.NodeID, core.TopicID, core.EventID, int), 3)
	for i := range deliver {
		deliver[i], _ = tr.hooks(i)
	}
	seq := uint64(0)
	probe := func(round, topic, publisher int) core.EventID {
		seq++
		ev := core.EventID{Publisher: core.NodeID(publisher), Seq: seq}
		tr.published(publisher, ev, topic, 0, 0, round)
		return ev
	}
	// Round 1 probes only topic 0 (incomplete by construction); round 2
	// probes both but loses a delivery; round 3 is complete at time 42.
	a := probe(1, 0, 0)
	now = 5
	deliver[0](0, 0, a, 0)
	deliver[1](0, 0, a, 1)
	b, c := probe(2, 0, 0), probe(2, 1, 1)
	deliver[0](0, 0, b, 0)
	deliver[1](0, 0, b, 1)
	deliver[1](0, 0, c, 0)
	d, e := probe(3, 0, 0), probe(3, 1, 1)
	now = 40
	deliver[0](0, 0, d, 0)
	deliver[1](0, 0, d, 1)
	deliver[1](0, 0, e, 0)
	now = 42
	deliver[2](0, 0, e, 1)
	got := tr.collect(false)
	if len(got.probes) != 3 || got.probes[0] != -1 || got.probes[1] != -1 || got.probes[2] != 42 {
		t.Errorf("probe rounds %v, want [-1 -1 42]", got.probes)
	}
	if got.published != 0 || got.delivered != 0 {
		t.Errorf("probes counted as measured events: %+v", got)
	}

	// A late starter (node 2) is owed no probe: the round that lacks only
	// its delivery is complete.
	tr.late = []bool{false, false, true}
	f, g := probe(1, 0, 0), probe(1, 1, 1)
	now = 50
	deliver[0](0, 0, f, 0)
	deliver[1](0, 0, g, 0)
	now = 57
	deliver[1](0, 0, f, 1)
	if got := tr.collect(false); got.firstReady() != 57 {
		t.Errorf("with a late starter the cluster was ready at %d (rounds %v), want 57", got.firstReady(), got.probes)
	}
}
