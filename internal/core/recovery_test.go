package core

import (
	"slices"
	"testing"

	"vitis/internal/simnet"
	"vitis/internal/telemetry"
)

// recParams turns the recovery extensions on with a small replay ring so
// bounds are easy to hit.
var recParams = Params{Recovery: true, ReplayDepth: 4}

// newRecoveryNode builds a node with recovery enabled and live metrics, on
// its own single-node simnet.
func newRecoveryNode(t *testing.T, p Params) (*simnet.Engine, *simnet.Network, *Node, *telemetry.NodeMetrics) {
	t.Helper()
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(5))
	m := telemetry.NewNodeMetrics(telemetry.NewRegistry())
	n := NewNode(net, 100, p, Hooks{Metrics: m})
	n.Join(nil)
	return eng, net, n, m
}

func TestReplayRingBounded(t *testing.T) {
	_, _, n, _ := newRecoveryNode(t, recParams)
	tp := Topic("ring")
	var last []EventID
	for i := 0; i < 10; i++ {
		ev := n.Publish(tp)
		last = append(last, ev)
	}
	ring := n.recent[tp]
	if len(ring) != 4 {
		t.Fatalf("ring holds %d events, want ReplayDepth=4", len(ring))
	}
	for i, rec := range ring {
		if want := last[len(last)-4+i]; rec.ev != want {
			t.Errorf("ring[%d] = %v, want %v (newest four, oldest first)", i, rec.ev, want)
		}
	}
	for _, ev := range last[:6] {
		if n.inRecent(tp, ev) {
			t.Errorf("evicted event %v still reported recent", ev)
		}
	}
	for _, ev := range last[6:] {
		if !n.inRecent(tp, ev) {
			t.Errorf("retained event %v not reported recent", ev)
		}
	}
}

func TestReplayReqAnsweredWithNotifications(t *testing.T) {
	eng, net, n, m := newRecoveryNode(t, recParams)
	tp := Topic("serve")
	evs := []EventID{n.Publish(tp), n.Publish(tp), n.Publish(tp)}

	var got []Notification
	net.Attach(900, simnet.HandlerFunc(func(from NodeID, msg simnet.Message) {
		if nt, ok := msg.(Notification); ok {
			got = append(got, nt)
		}
	}))
	n.handleReplayReq(900, ReplayReq{Topics: []TopicID{tp, Topic("other")}})
	eng.RunUntil(simnet.Second)

	if len(got) != len(evs) {
		t.Fatalf("replay sent %d notifications, want %d", len(got), len(evs))
	}
	for i, nt := range got {
		if nt.Topic != tp || nt.Event != evs[i] {
			t.Errorf("replayed[%d] = %+v, want event %v", i, nt, evs[i])
		}
		if nt.HasData {
			t.Errorf("replayed[%d] advertises a payload no one retains", i)
		}
	}
	if m.ReplayServed.Value() != uint64(len(evs)) {
		t.Errorf("ReplayServed = %d, want %d", m.ReplayServed.Value(), len(evs))
	}
}

func TestRecoveredPeerAskedForReplayWithRetries(t *testing.T) {
	eng, net, n, m := newRecoveryNode(t, recParams)
	tp := Topic("comeback")
	n.Subscribe(tp)

	reqs := 0
	net.Attach(200, simnet.HandlerFunc(func(from NodeID, msg simnet.Message) {
		if _, ok := msg.(ReplayReq); ok {
			reqs++
		}
	}))

	// Peer 200 was evicted earlier; now it speaks again.
	n.recordLost(200, 0)
	n.handleProfile(200, ProfileMsg{Profile: &Profile{ID: 200}, Reply: true})
	if m.NeighborsRecovered.Value() != 1 {
		t.Fatalf("NeighborsRecovered = %d, want 1", m.NeighborsRecovered.Value())
	}
	if _, still := n.lost[200]; still {
		t.Error("recovered peer still in the lost set")
	}

	// The first request fires immediately; the remaining attempts ride the
	// heartbeat cadence until the budget is spent.
	for i := 0; i < 5; i++ {
		n.retryReplays()
	}
	eng.RunUntil(simnet.Second)
	if reqs != replayAttempts {
		t.Errorf("%d replay requests sent, want exactly %d", reqs, replayAttempts)
	}
	if len(n.replayAsk) != 0 {
		t.Errorf("replayAsk not drained: %v", n.replayAsk)
	}
}

func TestFirstVoiceAfterIsolationTriggersReplay(t *testing.T) {
	eng, net, n, m := newRecoveryNode(t, recParams)
	n.Subscribe(Topic("alone"))
	reqs := 0
	net.Attach(300, simnet.HandlerFunc(func(from NodeID, msg simnet.Message) {
		if _, ok := msg.(ReplayReq); ok {
			reqs++
		}
	}))
	n.wasIsolated = true
	n.handleProfile(300, ProfileMsg{Profile: &Profile{ID: 300}, Reply: true})
	// Stop short of the first heartbeat, which would legitimately retry.
	eng.RunUntil(simnet.Second / 2)
	if reqs != 1 {
		t.Errorf("%d replay requests after isolation ended, want 1", reqs)
	}
	if m.NeighborsRecovered.Value() != 1 {
		t.Errorf("NeighborsRecovered = %d, want 1", m.NeighborsRecovered.Value())
	}
	if n.wasIsolated {
		t.Error("isolation flag not cleared by the first voice")
	}
}

func TestRejoinSeedsMembershipAndRequestsReplay(t *testing.T) {
	eng, net, n, m := newRecoveryNode(t, recParams)
	n.Subscribe(Topic("rejoin"))
	reqs := map[NodeID]int{}
	for _, id := range []NodeID{200, 300} {
		id := id
		net.Attach(id, simnet.HandlerFunc(func(from NodeID, msg simnet.Message) {
			if _, ok := msg.(ReplayReq); ok {
				reqs[id]++
			}
		}))
	}
	// Stale verdicts about the peers must be forgotten on rejoin.
	n.live.Suspect(200, 0)
	n.lost[300] = 7

	n.Rejoin([]NodeID{200, 300, 200, n.ID()})
	// Stop short of the first heartbeat, which would legitimately retry.
	eng.RunUntil(simnet.Second / 2)

	if m.Rejoins.Value() != 1 {
		t.Errorf("Rejoins = %d, want 1", m.Rejoins.Value())
	}
	if n.live.Suspected(200, eng.Now()) || len(n.lost) != 0 {
		t.Errorf("stale verdicts survived rejoin: suspected=%v lost=%v", n.live.Suspected(200, eng.Now()), n.lost)
	}
	if reqs[200] != 1 || reqs[300] != 1 {
		t.Errorf("replay requests per fresh peer = %v, want one each", reqs)
	}
	if !n.xchg.Contains(200) || !n.xchg.Contains(300) {
		t.Error("fresh peers not offered to the topology exchanger")
	}
}

func TestEvictionRepairsRelayPath(t *testing.T) {
	_, _, n, m := newRecoveryNode(t, recParams)
	tp := Topic("repair")
	n.Subscribe(tp)
	// This node is the topic's gateway and its relay parent is peer 200,
	// which also holds a child lease.
	n.proposals[tp] = Proposal{GW: n.ID(), Parent: n.ID(), Hops: 0}
	rs := n.relays.For(tp)
	rs.LeaseParent(200, 1<<40)
	rs.LeaseChild(200, 1<<40)

	n.onNeighborLost(200)

	if p, ok := rs.Parent(0); ok && p == 200 {
		t.Error("stale relay parent kept after eviction")
	}
	if slices.Contains(rs.AppendLinks(nil, 0), 200) {
		t.Error("dead node still holds a child lease")
	}
	if m.RelaysRepaired.Value() != 1 {
		t.Errorf("RelaysRepaired = %d, want 1", m.RelaysRepaired.Value())
	}
}

func TestReplayRingBlocksResurrectedEvents(t *testing.T) {
	_, _, n, m := newRecoveryNode(t, recParams)
	tp := Topic("zombie")
	n.Subscribe(tp)
	ev := EventID{Publisher: 999, Seq: 1}
	n.handleNotification(200, Notification{Topic: tp, Event: ev, Hops: 1})
	if m.Deliveries.Value() != 1 {
		t.Fatalf("Deliveries = %d after first receipt, want 1", m.Deliveries.Value())
	}
	// Enough heartbeat time passes that the seen-set forgets the event
	// entirely; only the replay ring still remembers it.
	n.seen.Rotate()
	n.seen.Rotate()
	if n.Seen(ev) {
		t.Fatal("seen-set still remembers the event; test setup is wrong")
	}
	n.handleNotification(300, Notification{Topic: tp, Event: ev, Hops: 7})
	if m.Deliveries.Value() != 1 {
		t.Errorf("Deliveries = %d, want 1: a replayed old event was re-delivered", m.Deliveries.Value())
	}
	if m.Duplicates.Value() != 1 {
		t.Errorf("Duplicates = %d, want 1: ring dedup did not count the cut", m.Duplicates.Value())
	}
}

func TestAntiEntropySweepAsksRotatingNeighbor(t *testing.T) {
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(5))
	m := telemetry.NewNodeMetrics(telemetry.NewRegistry())
	p := recParams
	p.AntiEntropyRounds = 1 // sweep every heartbeat
	n := NewNode(net, 100, p, Hooks{Metrics: m})
	reqs := 0
	net.Attach(200, simnet.HandlerFunc(func(from NodeID, msg simnet.Message) {
		if _, ok := msg.(ReplayReq); ok {
			reqs++
		}
	}))
	n.Join([]NodeID{200})
	n.Subscribe(Topic("sweep"))
	eng.RunUntil(4 * simnet.Second) // several default 1s heartbeats
	if reqs == 0 {
		t.Error("anti-entropy sweep never asked the neighbor for a replay")
	}
	if m.ReplayRequests.Value() == 0 {
		t.Error("ReplayRequests counter not incremented by the sweep")
	}
}
