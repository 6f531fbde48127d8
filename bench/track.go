package main

import (
	"sync"
	"sync/atomic"
	"time"

	"vitis/internal/core"
)

// pubRec is one publish the generator made.
type pubRec struct {
	ev    core.EventID
	topic int   // topic index
	at    int64 // publisher's engine clock at the tick: the due time, virtual ms
	wall  int64 // harness clock when Publish ran (udp only), ns
	probe int   // readiness-probe round + 1; 0 for a measured event
}

// delivRec is one Hooks.OnDeliver call.
type delivRec struct {
	ev   core.EventID
	hops int32
	at   int64 // harness clock: virtual ms in sim-*, wall ns in udp-*
}

// nodeTrack holds what one node's hooks observed. In udp-* each node runs
// on its own driver goroutine, so every node appends to its own record under
// its own (uncontended) lock; the harness takes the lock only between
// windows.
type nodeTrack struct {
	mu    sync.Mutex
	pubs  []pubRec
	deliv []delivRec
	notif uint64
	unint uint64
	// minOff is the smallest (harness clock − engine clock) a generator tick
	// saw: the driver's start instant on the harness clock. A tick never runs
	// before it is due, so the minimum is the sharpest estimate from outside.
	minOff int64
	hookNs int64
}

// tracker is the harness side of core.Hooks: it records publishes and
// deliveries and checks them against the expected sets after each window.
type tracker struct {
	clock      func() int64
	subsOf     [][]int        // topic index → subscriber node indices
	subscribed []map[int]bool // node index → its topics
	nodes      []*nodeTrack
	// late marks udp-catchup's late starters (nil = none): a readiness probe
	// owes them nothing, and their deliveries, backfilled through catch-up,
	// are not live latency samples.
	late      []bool
	delivered atomic.Int64 // every OnDeliver call; the catch-up wait polls it
	timeHooks bool         // traced run: account the harness's own hook time
}

func newTracker(clock func() int64, nodes int, subsOf [][]int) *tracker {
	t := &tracker{clock: clock, subsOf: subsOf, subscribed: make([]map[int]bool, nodes), nodes: make([]*nodeTrack, nodes)}
	for i := range t.nodes {
		t.nodes[i] = &nodeTrack{minOff: 1 << 62}
		t.subscribed[i] = map[int]bool{}
	}
	for topic, subs := range subsOf {
		for _, n := range subs {
			t.subscribed[n][topic] = true
		}
	}
	return t
}

// hooks returns the observation hooks of node i.
func (t *tracker) hooks(i int) (onDeliver func(core.NodeID, core.TopicID, core.EventID, int), onNotif func(core.NodeID, core.TopicID, bool)) {
	nt := t.nodes[i]
	onDeliver = func(_ core.NodeID, _ core.TopicID, ev core.EventID, hops int) {
		at := t.clock()
		nt.mu.Lock()
		nt.deliv = append(nt.deliv, delivRec{ev: ev, hops: int32(hops), at: at})
		nt.mu.Unlock()
		t.delivered.Add(1)
	}
	onNotif = func(_ core.NodeID, _ core.TopicID, interested bool) {
		nt.mu.Lock()
		nt.notif++
		if !interested {
			nt.unint++
		}
		nt.mu.Unlock()
	}
	if !t.timeHooks {
		return onDeliver, onNotif
	}
	d, n := onDeliver, onNotif
	return func(a core.NodeID, b core.TopicID, c core.EventID, h int) {
			t0 := time.Now()
			d(a, b, c, h)
			atomic.AddInt64(&nt.hookNs, int64(time.Since(t0)))
		}, func(a core.NodeID, b core.TopicID, in bool) {
			t0 := time.Now()
			n(a, b, in)
			atomic.AddInt64(&nt.hookNs, int64(time.Since(t0)))
		}
}

// published records a publish node i made at engine time at; wall is the
// harness clock just before Publish ran (udp-* only).
func (t *tracker) published(i int, ev core.EventID, topic int, at, wall int64, probe int) {
	nt := t.nodes[i]
	nt.mu.Lock()
	nt.pubs = append(nt.pubs, pubRec{ev: ev, topic: topic, at: at, wall: wall, probe: probe})
	nt.mu.Unlock()
}

// calibrate feeds one (harness clock, engine clock) pair seen by node i's
// generator tick into its driver-start estimate and returns the tick's due
// time on the harness clock.
func (t *tracker) calibrate(i int, wall, at int64) (due int64) {
	nt := t.nodes[i]
	nt.mu.Lock()
	defer nt.mu.Unlock()
	if off := wall - at*int64(time.Millisecond); off < nt.minOff {
		nt.minOff = off
	}
	return nt.minOff + at*int64(time.Millisecond)
}

// tally is what one window's records add up to.
type tally struct {
	published int
	expected  int
	delivered int
	invalid   int // deliveries to a non-subscriber, or repeated for one (node, event)
	stray     int // deliveries of events no open window published (late arrivals)
	lat       []float64
	hopSum    uint64
	hopN      uint64
	notif     uint64
	unint     uint64
	lateMs    []float64 // generator lateness per publish (udp only)
	hookS     float64
	// probes[r] lists, for readiness-probe round r, the harness-clock time
	// the round's last delivery arrived, or -1 when a delivery is missing.
	probes []int64
}

// firstReady is the harness-clock time the first complete probe round
// finished, or 0 when none did.
func (t tally) firstReady() int64 {
	for _, at := range t.probes {
		if at >= 0 {
			return at
		}
	}
	return 0
}

type delivKey struct {
	node int
	ev   core.EventID
}

// collect drains every node's records and checks them. wallClock says the
// harness clock is wall ns (udp-*): latency is then timed from the tick's
// due time on the publisher's calibrated engine clock, and generator
// lateness is reported; otherwise both clocks are the simulator's virtual
// ms.
func (t *tracker) collect(wallClock bool) tally {
	var out tally
	type pubInfo struct {
		rec pubRec
		due int64
	}
	pubs := make(map[core.EventID]pubInfo)
	delivs := make([][]delivRec, len(t.nodes))
	for i, nt := range t.nodes {
		nt.mu.Lock()
		for _, p := range nt.pubs {
			due := p.at
			if wallClock {
				due = nt.minOff + p.at*int64(time.Millisecond)
			}
			pubs[p.ev] = pubInfo{rec: p, due: due}
		}
		delivs[i] = nt.deliv
		nt.pubs, nt.deliv = nil, nil
		out.notif += nt.notif
		out.unint += nt.unint
		nt.notif, nt.unint = 0, 0
		out.hookS += float64(atomic.SwapInt64(&nt.hookNs, 0)) / 1e9
		nt.mu.Unlock()
	}
	var probeWant []int // deliveries owed per probe round
	for _, p := range pubs {
		subs := t.subsOf[p.rec.topic]
		if r := p.rec.probe; r > 0 {
			for len(probeWant) < r {
				probeWant = append(probeWant, 0)
			}
			for _, n := range subs {
				if t.late == nil || !t.late[n] {
					probeWant[r-1]++
				}
			}
			continue
		}
		out.published++
		out.expected += len(subs)
		if wallClock {
			out.lateMs = append(out.lateMs, float64(p.rec.wall-p.due)/1e6)
		}
	}
	probeGot := make([]int, len(probeWant))
	out.probes = make([]int64, len(probeWant))
	seen := make(map[delivKey]struct{}, out.expected)
	unit := 1.0 // virtual ms
	if wallClock {
		unit = 1e6
	}
	for i, recs := range delivs {
		for _, d := range recs {
			p, ok := pubs[d.ev]
			if !ok {
				out.stray++
				continue
			}
			k := delivKey{i, d.ev}
			if _, dup := seen[k]; dup || !t.subscribed[i][p.rec.topic] {
				out.invalid++
				continue
			}
			seen[k] = struct{}{}
			if r := p.rec.probe; r > 0 {
				probeGot[r-1]++
				if d.at > out.probes[r-1] {
					out.probes[r-1] = d.at
				}
				continue
			}
			out.delivered++
			if d.hops == 0 {
				continue // the publisher's own subscription
			}
			out.hopSum += uint64(d.hops)
			out.hopN++
			if t.late == nil || !t.late[i] {
				out.lat = append(out.lat, float64(d.at-p.due)/unit)
			}
		}
	}
	full := 0
	for _, w := range probeWant {
		full = max(full, w)
	}
	for r := range out.probes {
		if probeGot[r] < probeWant[r] || probeWant[r] < full {
			out.probes[r] = -1 // a delivery is missing, or not every topic was probed
		}
	}
	return out
}
