package main

import (
	"testing"
	"time"

	"vitis/internal/core"
	"vitis/internal/simnet"
	"vitis/internal/wire"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, start: 0, end: 100},              // root handler
		{id: 2, parent: 1, start: 10, end: 30},   // child
		{id: 3, parent: 1, start: 20, end: 50},   // overlaps child 2: union is [10,50)
		{id: 4, parent: 1, start: 60, end: 70},   // disjoint child
		{id: 5, parent: 4, start: 62, end: 65},   // grandchild: counts against 4 only
		{id: 6, parent: 1, start: 90, end: 130},  // sticks out of the parent: only [90,100) counts
		{id: 7, parent: 6, start: 200, end: 300}, // wholly after its parent (a handler under its send)
		{id: 8, parent: 99, start: 0, end: 10},   // parent not kept: a root
	}
	want := []int64{
		100 - 40 - 10 - 10, // 1
		20,                 // 2
		30,                 // 3
		10 - 3,             // 4
		3,                  // 5
		40,                 // 6: its child lies outside its interval
		100,                // 7
		10,                 // 8
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self time %d, want %d", spans[i].id, got[i], want[i])
		}
	}
}

func TestLinkParents(t *testing.T) {
	ev := core.EventID{Publisher: 1, Seq: 7}
	spans := []span{
		{id: 1, send: true, typ: wire.TNotification, ev: ev, node: 10, peer: 20, start: 0, end: 5},
		{id: 2, send: true, typ: wire.TNotification, ev: ev, node: 10, peer: 30, start: 6, end: 9},
		{id: 3, typ: wire.TNotification, ev: ev, node: 20, peer: 10, start: 50, end: 60},
		{id: 4, typ: wire.TNotification, ev: ev, node: 30, peer: 10, start: 40, end: 45},
		{id: 5, typ: wire.TProfile, node: 20, peer: 10, start: 70, end: 80}, // no matching send
		// Two sends of the same key are claimed in order.
		{id: 6, send: true, typ: wire.TProfile, node: 40, peer: 50, start: 100, end: 101},
		{id: 7, send: true, typ: wire.TProfile, node: 40, peer: 50, start: 102, end: 103},
		{id: 8, typ: wire.TProfile, node: 50, peer: 40, start: 110, end: 111},
		{id: 9, typ: wire.TProfile, node: 50, peer: 40, start: 112, end: 113},
	}
	linkParents(spans)
	for id, parent := range map[uint64]uint64{3: 1, 4: 2, 5: 0, 8: 6, 9: 7} {
		if got := spans[id-1].parent; got != parent {
			t.Errorf("span %d: parent %d, want %d", id, got, parent)
		}
	}
}

// fakeCarrier is a simnet.Net whose Send takes a fixed time and whose
// attached handler the test calls directly.
type fakeCarrier struct {
	eng      *simnet.Engine
	handlers map[simnet.NodeID]simnet.Handler
	sendCost time.Duration
	sent     int
}

func (f *fakeCarrier) Engine() *simnet.Engine                    { return f.eng }
func (f *fakeCarrier) Attach(id simnet.NodeID, h simnet.Handler) { f.handlers[id] = h }
func (f *fakeCarrier) Detach(id simnet.NodeID)                   { delete(f.handlers, id) }
func (f *fakeCarrier) Alive(id simnet.NodeID) bool               { return f.handlers[id] != nil }
func (f *fakeCarrier) Send(_, _ simnet.NodeID, _ simnet.Message) {
	f.sent++
	time.Sleep(f.sendCost)
}

func TestTracedNetAccounting(t *testing.T) {
	carrier := &fakeCarrier{eng: simnet.NewEngine(1), handlers: map[simnet.NodeID]simnet.Handler{}, sendCost: 2 * time.Millisecond}
	rec := newRecorder(time.Now(), 0, 1)
	tn := &tracedNet{inner: carrier, rec: rec}
	note := core.Notification{Topic: 5, Event: core.EventID{Publisher: 1, Seq: 1}, Hops: 1}
	// The handler forwards twice and then works for a while itself.
	tn.Attach(2, simnet.HandlerFunc(func(from simnet.NodeID, msg simnet.Message) {
		tn.Send(2, 3, msg)
		tn.Send(2, 4, msg)
		time.Sleep(3 * time.Millisecond)
	}))

	carrier.handlers[2].Deliver(1, note) // recorder inactive: passes through untimed
	if rec.spanCount != 0 || carrier.sent != 2 {
		t.Fatalf("inactive recorder recorded %d spans over %d sends", rec.spanCount, carrier.sent)
	}
	rec.active.Store(true)
	carrier.handlers[2].Deliver(1, note)
	tn.Send(2, 9, core.ProfileMsg{}) // outside any handler: a root send

	sum := mergeRecorders([]*recorder{rec})
	notify, profile := sum.agg[layerOf(wire.TNotification)], sum.agg[layerOf(wire.TProfile)]
	if notify.handled != 1 || notify.sent != 2 || profile.sent != 1 || sum.spanCount != 4 {
		t.Fatalf("counts: %+v %+v spans %d", notify, profile, sum.spanCount)
	}
	if want := uint64(2 * simnet.WireSizeOf(note)); notify.sentB != want {
		t.Errorf("notification bytes %d, want %d", notify.sentB, want)
	}
	if notify.selfNs != notify.handleNs-notify.sendNs {
		t.Errorf("self %d != handle %d - child sends %d", notify.selfNs, notify.handleNs, notify.sendNs)
	}
	if notify.selfNs < int64(3*time.Millisecond) || notify.sendNs < int64(4*time.Millisecond) {
		t.Errorf("self %d ns and send %d ns are shorter than the sleeps they contain", notify.selfNs, notify.sendNs)
	}
	if sum.rootSendNs != profile.sendNs {
		t.Errorf("root send time %d, want the profile send's %d", sum.rootSendNs, profile.sendNs)
	}
	// The streaming arithmetic and the span-list arithmetic agree.
	self := selfTimes(sum.spans)
	for i, s := range sum.spans {
		if !s.send && self[i] != notify.selfNs {
			t.Errorf("selfTimes gives the handler %d ns, the recorder %d ns", self[i], notify.selfNs)
		}
		if s.send && s.typ == wire.TNotification && s.parent == 0 {
			t.Errorf("forwarded send %d has no parent handler", s.id)
		}
	}
	if len(sum.corpus) != 3 {
		t.Errorf("captured %d messages, want 3", len(sum.corpus))
	}
}

func TestEveryWireTypeHasALayer(t *testing.T) {
	for _, m := range wire.Samples() {
		typ, _ := classify(m)
		if typ == 0 {
			// Bootstrap-server messages never cross a node's carrier here.
			continue
		}
		if layerOf(typ) == otherLayer {
			t.Errorf("%s (%T) falls outside every layer", wire.TypeName(typ), m)
		}
	}
}
