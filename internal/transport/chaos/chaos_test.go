package chaos

import (
	"context"
	"sync"
	"testing"
	"time"

	"vitis/internal/simnet"
	"vitis/internal/telemetry"
	"vitis/internal/transport"
)

// fakeTransport records sends and flushes and lets tests inject inbound
// traffic, so the fault pipeline can be observed without sockets or codecs.
type fakeTransport struct {
	mu   sync.Mutex
	sent []int
	// flushed is how many sends the latest Flush found recorded.
	flushed int
	recv    transport.RecvFunc
}

func (f *fakeTransport) SetReceiver(recv transport.RecvFunc)  { f.recv = recv }
func (f *fakeTransport) Attach(id simnet.NodeID)              {}
func (f *fakeTransport) Detach(id simnet.NodeID)              {}
func (f *fakeTransport) Close() error                         { return nil }
func (f *fakeTransport) inject(from, to simnet.NodeID, m int) { f.recv(from, to, m) }

func (f *fakeTransport) Flush() {
	f.mu.Lock()
	f.flushed = len(f.sent)
	f.mu.Unlock()
}

func (f *fakeTransport) flushedSends() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.flushed
}

func (f *fakeTransport) Send(from, to simnet.NodeID, msg simnet.Message) error {
	f.mu.Lock()
	f.sent = append(f.sent, msg.(int))
	f.mu.Unlock()
	return nil
}

func (f *fakeTransport) snapshot() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.sent...)
}

func TestNilControllerWrapIsIdentity(t *testing.T) {
	ft := &fakeTransport{}
	var c *Controller
	if got := c.Wrap(ft); got != transport.Transport(ft) {
		t.Fatalf("nil controller Wrap returned %T, want the transport itself", got)
	}
}

// sendPattern runs n messages over one link and reports which arrived.
func sendPattern(c *Controller, n int) []int {
	ft := &fakeTransport{}
	tr := c.Wrap(ft)
	for i := 0; i < n; i++ {
		tr.Send(1, 2, i)
	}
	return ft.snapshot()
}

// TestWrapForwardsFlush drives a Host over a chaos-wrapped transport: the
// turn flush that follows the host's send reaches the transport underneath.
func TestWrapForwardsFlush(t *testing.T) {
	ctl := New(Config{})
	defer ctl.Close()
	ft := &fakeTransport{}
	eng := simnet.NewEngine(1)
	h := transport.NewHost(eng, ctl.Wrap(ft), nil)
	eng.Schedule(0, func() { h.Send(1, 2, 0) })
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		transport.NewDriver(h).Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()

	for deadline := time.Now().Add(5 * time.Second); ft.flushedSends() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no turn flush after the driven host's send reached the wrapped transport")
		}
	}
}

func TestSeededDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, Drop: 0.3, Duplicate: 0.1}
	a := sendPattern(New(cfg), 500)
	b := sendPattern(New(cfg), 500)
	if len(a) != len(b) {
		t.Fatalf("same seed delivered %d vs %d messages", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	cfg.Seed = 43
	d := sendPattern(New(cfg), 500)
	same := len(d) == len(a)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == d[i]
	}
	if same {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

func TestSeededDeterminismPerLink(t *testing.T) {
	// The same message sequence on two different links must draw from
	// independent streams, but each link's stream must replay exactly.
	run := func() (ab, cd []int) {
		ft := &fakeTransport{}
		tr := New(Config{Seed: 7, Drop: 0.5}).Wrap(ft)
		for i := 0; i < 100; i++ {
			tr.Send(1, 2, i)
		}
		ab = ft.snapshot()
		ft.mu.Lock()
		ft.sent = nil
		ft.mu.Unlock()
		for i := 0; i < 100; i++ {
			tr.Send(3, 4, i)
		}
		return ab, ft.snapshot()
	}
	ab1, cd1 := run()
	ab2, cd2 := run()
	if len(ab1) != len(ab2) || len(cd1) != len(cd2) {
		t.Fatalf("replay diverged: %d/%d vs %d/%d", len(ab1), len(cd1), len(ab2), len(cd2))
	}
}

func TestDropAll(t *testing.T) {
	c := New(Config{Drop: 1})
	got := sendPattern(c, 10)
	if len(got) != 0 {
		t.Fatalf("drop=1 delivered %d messages", len(got))
	}
	if v := c.Metrics().Dropped.Value(); v != 10 {
		t.Fatalf("Dropped = %d, want 10", v)
	}
}

func TestDuplicateAll(t *testing.T) {
	c := New(Config{Duplicate: 1})
	got := sendPattern(c, 5)
	if len(got) != 10 {
		t.Fatalf("dup=1 delivered %d messages, want 10", len(got))
	}
	if v := c.Metrics().Duplicated.Value(); v != 5 {
		t.Fatalf("Duplicated = %d, want 5", v)
	}
}

func TestReorderSwapsWithSuccessor(t *testing.T) {
	c := New(Config{Reorder: 1})
	ft := &fakeTransport{}
	tr := c.Wrap(ft)
	tr.Send(1, 2, 0) // held
	tr.Send(1, 2, 1) // swaps: 1 first, then 0
	got := ft.snapshot()
	if len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("got order %v, want [1 0]", got)
	}
	if v := c.Metrics().Reordered.Value(); v != 1 {
		t.Fatalf("Reordered = %d, want 1", v)
	}
}

func TestReorderFlushesWithoutSuccessor(t *testing.T) {
	c := New(Config{Reorder: 1})
	ft := &fakeTransport{}
	tr := c.Wrap(ft)
	tr.Send(1, 2, 0)
	if got := ft.snapshot(); len(got) != 0 {
		t.Fatalf("held message delivered immediately: %v", got)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(ft.snapshot()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("held message never flushed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDelayDefersDelivery(t *testing.T) {
	c := New(Config{DelayMin: 20 * time.Millisecond, DelayMax: 20 * time.Millisecond})
	ft := &fakeTransport{}
	tr := c.Wrap(ft)
	tr.Send(1, 2, 0)
	if got := ft.snapshot(); len(got) != 0 {
		t.Fatalf("delayed message delivered synchronously: %v", got)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(ft.snapshot()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("delayed message never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v := c.Metrics().Delayed.Value(); v != 1 {
		t.Fatalf("Delayed = %d, want 1", v)
	}
}

func TestPartitionStashesAndHealReleases(t *testing.T) {
	c := New(Config{})
	ft := &fakeTransport{}
	tr := c.Wrap(ft)
	c.Partition("cut", 1)
	for i := 0; i < 3; i++ {
		if err := tr.Send(1, 2, i); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	tr.Send(2, 3, 99) // both outside the member set: unaffected
	if got := ft.snapshot(); len(got) != 1 || got[0] != 99 {
		t.Fatalf("during partition got %v, want [99]", got)
	}
	if v := c.Metrics().Stashed.Value(); v != 3 {
		t.Fatalf("Stashed = %d, want 3", v)
	}
	c.Heal("cut")
	if got := ft.snapshot(); len(got) != 4 || got[1] != 0 || got[2] != 1 || got[3] != 2 {
		t.Fatalf("after heal got %v, want [99 0 1 2]", got)
	}
	if v := c.Metrics().Released.Value(); v != 3 {
		t.Fatalf("Released = %d, want 3", v)
	}
	tr.Send(1, 2, 7)
	if got := ft.snapshot(); got[len(got)-1] != 7 {
		t.Fatalf("post-heal traffic blocked: %v", got)
	}
}

func TestPartitionInboundStash(t *testing.T) {
	c := New(Config{})
	ft := &fakeTransport{}
	tr := c.Wrap(ft)
	var mu sync.Mutex
	var got []int
	tr.SetReceiver(func(from, to simnet.NodeID, msg simnet.Message) {
		mu.Lock()
		got = append(got, msg.(int))
		mu.Unlock()
	})
	c.Partition("cut", 2)
	ft.inject(1, 2, 5) // crosses into the member set: stashed
	ft.inject(3, 4, 6) // outside: delivered
	mu.Lock()
	if len(got) != 1 || got[0] != 6 {
		mu.Unlock()
		t.Fatalf("during partition received %v, want [6]", got)
	}
	mu.Unlock()
	c.Heal("cut")
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[1] != 5 {
		t.Fatalf("after heal received %v, want [6 5]", got)
	}
}

func TestPartitionStashEviction(t *testing.T) {
	c := New(Config{StashCap: 2})
	tr := c.Wrap(&fakeTransport{})
	c.Partition("cut", 1)
	for i := 0; i < 5; i++ {
		tr.Send(1, 2, i)
	}
	if v := c.Metrics().StashEvicted.Value(); v != 3 {
		t.Fatalf("StashEvicted = %d, want 3", v)
	}
}

func TestPartitionDropMode(t *testing.T) {
	c := New(Config{StashCap: -1})
	ft := &fakeTransport{}
	tr := c.Wrap(ft)
	c.Partition("cut", 1)
	tr.Send(1, 2, 0)
	c.Heal("cut")
	if got := ft.snapshot(); len(got) != 0 {
		t.Fatalf("drop-mode partition delivered %v", got)
	}
	if v := c.Metrics().PartitionDrops.Value(); v != 1 {
		t.Fatalf("PartitionDrops = %d, want 1", v)
	}
}

func TestPartitionDefaultsToAttachedIDs(t *testing.T) {
	c := New(Config{})
	ft := &fakeTransport{}
	tr := c.Wrap(ft)
	tr.Attach(7)
	c.Partition("self")
	tr.Send(7, 8, 0)
	if got := ft.snapshot(); len(got) != 0 {
		t.Fatalf("member-less partition did not isolate the attached id: %v", got)
	}
	if v := c.Metrics().Partitions.Value(); v != 1 {
		t.Fatalf("Partitions gauge = %d, want 1", v)
	}
	c.Heal("self")
	if v := c.Metrics().Partitions.Value(); v != 0 {
		t.Fatalf("Partitions gauge after heal = %d, want 0", v)
	}
}

func TestScheduledPartition(t *testing.T) {
	c := New(Config{})
	ft := &fakeTransport{}
	tr := c.Wrap(ft)
	c.Schedule("cut", 10*time.Millisecond, 80*time.Millisecond, 1)
	c.Start()
	await := func(cond func() bool, what string) {
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	await(func() bool { return c.Metrics().Partitions.Value() == 1 }, "partition activation")
	tr.Send(1, 2, 0)
	if got := ft.snapshot(); len(got) != 0 {
		t.Fatalf("scheduled partition not cutting: %v", got)
	}
	await(func() bool { return c.Metrics().Partitions.Value() == 0 }, "scheduled heal")
	await(func() bool { return len(ft.snapshot()) == 1 }, "stash release")
}

func TestCloseStopsTimers(t *testing.T) {
	c := New(Config{DelayMin: time.Hour, DelayMax: time.Hour})
	ft := &fakeTransport{}
	tr := c.Wrap(ft)
	tr.Send(1, 2, 0)
	c.Schedule("cut", time.Hour, 0)
	c.Start()
	c.Close()
	// After Close the wrapper is a plain pass-through.
	tr.Send(1, 2, 1)
	got := ft.snapshot()
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("after Close got %v, want [1]", got)
	}
}

func TestLoadAndMetricsRegistry(t *testing.T) {
	if ctl, err := Load("", nil); err != nil || ctl != nil {
		t.Fatalf("Load(\"\") = %v, %v; want nil, nil", ctl, err)
	}
	reg := telemetry.NewRegistry()
	ctl, err := Load("drop=0.5,seed=3", telemetry.NewChaosMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	tr := ctl.Wrap(&fakeTransport{})
	for i := 0; i < 50; i++ {
		tr.Send(1, 2, i)
	}
	found := false
	for _, s := range reg.Snapshot() {
		if s.Name == "vitis_chaos_dropped_total" && s.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("vitis_chaos_dropped_total not exported or zero after 50 sends at drop=0.5")
	}
}
