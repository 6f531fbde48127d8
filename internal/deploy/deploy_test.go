package deploy_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"vitis/internal/bootstrap"
	"vitis/internal/core"
	"vitis/internal/deploy"
	"vitis/internal/idspace"
	"vitis/internal/simnet"
	"vitis/internal/telemetry"
	"vitis/internal/transport"
)

const (
	period = simnet.Second
	bsID   = simnet.NodeID(1)
)

var news = core.Topic("news")

// world is a deployment in virtual time: one engine and one simulated
// network, each node on its own SyncHost over the Sim carrier, as
// cmd/vitis-node puts each node on its own UDP host.
type world struct {
	eng    *simnet.Engine
	net    *simnet.Network
	period simnet.Time
	log    []string // one line per delivery, in engine order
}

func newWorld(seed int64) *world {
	eng := simnet.NewEngine(seed)
	return &world{eng: eng, net: simnet.NewNetwork(eng, simnet.ConstantLatency(20)), period: period}
}

func (w *world) host() *transport.Host {
	return transport.NewSyncHost(w.eng, transport.NewSim(w.net))
}

// node deploys node i subscribed to news, with its own registry and its
// join lines in out.
func (w *world) node(i int, out *strings.Builder) *deploy.Node {
	cfg := deploy.Config{
		Self: idspace.HashUint64(uint64(i)), Bootstrap: bsID, Period: w.period,
		Subscribe: []core.TopicID{news}, Registry: telemetry.NewRegistry(),
		OnDeliver: func(n core.NodeID, _ core.TopicID, ev core.EventID, hops int) {
			w.log = append(w.log, fmt.Sprintf("t=%d node=%016x event=%016x:%d hops=%d",
				w.eng.Now(), uint64(n), uint64(ev.Publisher), ev.Seq, hops))
		},
	}
	if out != nil {
		cfg.Log = out
	}
	return deploy.New(w.host(), cfg)
}

// delivered reports whether node n has delivered ev.
func (w *world) delivered(n *deploy.Node, ev core.EventID) bool {
	want := fmt.Sprintf("node=%016x event=%016x:%d ", uint64(n.ID()), uint64(ev.Publisher), ev.Seq)
	return slices.ContainsFunc(w.log, func(l string) bool { return strings.Contains(l, want) })
}

// TestJoinRetriesWithBackoff: a node started before its bootstrap node
// keeps asking, each retry waiting within the jittered band of a doubling
// delay that starts at one period, and joins once the bootstrap node is up.
func TestJoinRetriesWithBackoff(t *testing.T) {
	w := newWorld(1)
	var asked []simnet.Time
	w.host().Attach(bsID, simnet.HandlerFunc(func(_ simnet.NodeID, msg simnet.Message) {
		if _, ok := msg.(bootstrap.JoinReq); ok {
			asked = append(asked, w.eng.Now())
		}
	}))
	var out strings.Builder
	a := w.node(0, &out)
	w.eng.RunUntil(8 * period)
	if a.Joined() || len(asked) < 3 {
		t.Fatalf("joined=%v after %d JoinReqs to a silent bootstrap, want no join and at least 3", a.Joined(), len(asked))
	}
	for k := 1; k < len(asked); k++ {
		full := period << (k - 1)
		if gap := asked[k] - asked[k-1]; gap < full/2 || gap > full {
			t.Errorf("retry %d came %dms after the one before, want %d..%dms", k, gap, full/2, full)
		}
	}

	bs := deploy.Bootstrap(w.host(), bsID, period)
	w.eng.RunUntil(40 * period)
	if !a.Joined() || a.JoinedAt() < 8*period || bs.Size() != 1 {
		t.Fatalf("joined=%v at %dms with %d registrations, want a join after the bootstrap came up at %dms and 1",
			a.Joined(), a.JoinedAt(), bs.Size(), 8*period)
	}
	if !strings.Contains(out.String(), "joined with 0 peers\n") {
		t.Errorf("log %q lacks the join line", out.String())
	}
}

// TestIsolatedNodeRejoinsThroughBootstrap: every neighbour of a leaves
// while the bootstrap node restarts with an empty registry, and three fresh
// nodes join it. They never hear of a, so a, isolated, can only find them
// through the bootstrap node; it must do so once and then deliver what one
// of them publishes.
func TestIsolatedNodeRejoinsThroughBootstrap(t *testing.T) {
	w := newWorld(2)
	deploy.Bootstrap(w.host(), bsID, period)
	var out strings.Builder
	a := w.node(0, &out)
	var old []*deploy.Node
	for i := 1; i <= 3; i++ {
		old = append(old, w.node(i, nil))
	}
	w.eng.RunUntil(30 * period)
	if len(a.RoutingTable()) == 0 {
		t.Fatal("a has no neighbour before they leave")
	}

	for _, n := range old {
		n.Leave()
	}
	deploy.Bootstrap(w.host(), bsID, period)
	var fresh []*deploy.Node
	for i := 4; i <= 6; i++ {
		fresh = append(fresh, w.node(i, nil))
	}
	w.eng.RunUntil(60 * period)
	if got := a.Metrics().Rejoins.Value(); got != 1 {
		t.Fatalf("a rejoined %d times, want 1; log:\n%s", got, out.String())
	}
	for _, line := range []string{"isolated; rejoining via bootstrap", "rejoined with 3 peers"} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("log lacks %q:\n%s", line, out.String())
		}
	}

	ev := fresh[0].Publish(news)
	w.eng.RunUntil(70 * period)
	if !w.delivered(a, ev) {
		t.Errorf("a did not deliver event %v published by a fresh node; routing table %v", ev, a.RoutingTable())
	}
}

// TestAnnouncesKeepRegistration: a lone joined node stays registered with
// the bootstrap node across many 30-period leases. The node is isolated
// and keeps sending JoinReqs, which register it too, so the test runs at a
// 100ms period: the lease is then 3s, and once the JoinReqs' backoff has
// grown past that (it doubles from one period up to 30s) only the
// announces, every ten periods, can keep the registration alive.
func TestAnnouncesKeepRegistration(t *testing.T) {
	w := newWorld(3)
	w.period = 100 * simnet.Millisecond
	bs := deploy.Bootstrap(w.host(), bsID, w.period)
	a := w.node(0, nil)
	lapsed := simnet.Time(-1)
	w.eng.Every(w.period, func() bool {
		if a.Joined() && bs.Size() != 1 && lapsed < 0 {
			lapsed = w.eng.Now()
		}
		return true
	})
	w.eng.RunUntil(1000 * w.period)
	if !a.Joined() || lapsed >= 0 || a.Metrics().Rejoins.Value() != 0 {
		t.Errorf("joined=%v, registration lapsed at %dms (-1 = never), rejoins %d; want joined, never, none",
			a.Joined(), lapsed, a.Metrics().Rejoins.Value())
	}
}

// TestLoneNodeQuiet: the first node of a cluster joins with no peers and
// is isolated from then on. Its JoinReqs follow one backoff that doubles
// from one period, and it logs its join and one isolation line, not a pair
// of lines every two periods.
func TestLoneNodeQuiet(t *testing.T) {
	w := newWorld(5)
	h := w.host()
	bs := deploy.Bootstrap(h, bsID, period)
	asked := 0
	h.Attach(bsID, simnet.HandlerFunc(func(from simnet.NodeID, msg simnet.Message) {
		if _, ok := msg.(bootstrap.JoinReq); ok {
			asked++
		}
		bs.Deliver(from, msg)
	}))
	var out strings.Builder
	w.node(0, &out)
	w.eng.RunUntil(20 * period)
	if lines := strings.Count(out.String(), "\n"); asked > 6 || lines > 3 {
		t.Errorf("%d JoinReqs and %d log lines in 20 periods, want at most 6 and 3; log:\n%s", asked, lines, out.String())
	}
}

// TestDeployDeterministic: the same seed gives the same delivery log and
// the same routing tables, so deployed nodes can be studied in virtual time.
func TestDeployDeterministic(t *testing.T) {
	run := func() (log, tables []string) {
		w := newWorld(4)
		deploy.Bootstrap(w.host(), bsID, period)
		var nodes []*deploy.Node
		for i := 0; i < 8; i++ {
			nodes = append(nodes, w.node(i, nil))
		}
		w.eng.Every(2*period, func() bool {
			if nodes[0].Joined() {
				nodes[0].Publish(news)
			}
			return true
		})
		w.eng.RunUntil(60 * period)
		for _, n := range nodes {
			tables = append(tables, fmt.Sprint(n.RoutingTable()))
		}
		return w.log, tables
	}
	log1, tables1 := run()
	log2, tables2 := run()
	if len(log1) == 0 {
		t.Fatal("nothing delivered")
	}
	if !slices.Equal(log1, log2) {
		t.Errorf("delivery logs differ: %d and %d lines", len(log1), len(log2))
	}
	if !slices.Equal(tables1, tables2) {
		t.Errorf("routing tables differ:\n%v\n%v", tables1, tables2)
	}
}
