package core

import (
	"bytes"
	"math"
	"testing"

	"vitis/internal/idspace"
	"vitis/internal/metrics"
	"vitis/internal/simnet"
	"vitis/internal/telemetry"
)

// TestTelemetryMatchesOracle runs a simulated cluster with the full
// telemetry stack enabled — registry-backed instruments plus a span tracer —
// and cross-checks three independent accountings of the same dissemination:
// the paper-metrics oracle, the telemetry counters, and the propagation
// trees reconstructed from the trace. All three must agree.
func TestTelemetryMatchesOracle(t *testing.T) {
	const n = 24
	tp := Topic("traced")
	eng := simnet.NewEngine(42)
	net := simnet.NewNetwork(eng, simnet.UniformLatency{Min: 10, Max: 80})

	reg := telemetry.NewRegistry()
	tel := telemetry.NewNodeMetrics(reg)
	var traceBuf bytes.Buffer
	tracer := telemetry.NewTracer(&traceBuf, func() int64 { return int64(eng.Now()) })

	oracle := metrics.New()
	hooks := Hooks{
		OnDeliver: func(node NodeID, topic TopicID, ev EventID, hops int) {
			oracle.Deliver(ev, node, hops)
		},
		OnNotification: func(node NodeID, topic TopicID, interested bool) {
			oracle.Notification(node, interested)
		},
		// All nodes share one bundle: the counters aggregate across the
		// cluster, which is exactly what the cross-check wants.
		Metrics: tel,
		Tracer:  tracer,
	}

	ids := make([]NodeID, n)
	nodes := make([]*Node, n)
	for i := range ids {
		ids[i] = idspace.HashUint64(uint64(i))
	}
	params := Params{NetworkSizeEstimate: n}
	for i := range ids {
		nd := NewNode(net, ids[i], params, hooks)
		nd.Subscribe(tp)
		nodes[i] = nd
	}
	for i, nd := range nodes {
		var boot []NodeID
		for j := 1; j <= 3; j++ {
			boot = append(boot, ids[(i+j)%n])
		}
		nd.Join(boot)
	}
	eng.RunUntil(60 * simnet.Second)

	pub := nodes[0]
	ev := pub.Publish(tp)
	oracle.RecordPublish(ev, tp, eng.Now(), collectSubscribers(nodes, tp))
	// The publisher's own delivery hook fired inside Publish, before the
	// event was registered; re-record it (same dance as the experiment
	// runner).
	oracle.Deliver(ev, pub.ID(), 0)
	eng.RunUntil(eng.Now() + 10*simnet.Second)

	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	spans, err := telemetry.ReadSpans(&traceBuf)
	if err != nil {
		t.Fatal(err)
	}
	trace := telemetry.Analyze(spans)

	var tree *telemetry.EventTree
	for _, et := range trace.Events {
		if et.Key == (telemetry.EventKey{Pub: uint64(ev.Publisher), Seq: ev.Seq}) {
			tree = et
		}
	}
	if tree == nil {
		t.Fatalf("trace has no tree for published event %v", ev)
	}

	// Every node subscribed, so the tree's deliveries (publisher included)
	// must match the oracle's perfect hit ratio and the shared counter.
	if hr := oracle.HitRatio(); hr != 1 {
		t.Fatalf("hit ratio = %v, want 1 (cluster too unstable for cross-check)", hr)
	}
	if tree.Deliveries != n {
		t.Errorf("tree deliveries = %d, want %d", tree.Deliveries, n)
	}
	if got := tel.Deliveries.Value(); got != n {
		t.Errorf("deliveries counter = %d, want %d", got, n)
	}
	if tree.Receipts != n-1 {
		t.Errorf("tree receipts = %d, want %d (everyone but the publisher)", tree.Receipts, n-1)
	}

	// The reconstructed tree's average hop count must equal the oracle's
	// propagation delay: both exclude the publisher's 0-hop self-delivery.
	if got, want := tree.AvgHops(), oracle.AvgDelay(); math.Abs(got-want) > 1e-9 {
		t.Errorf("tree avg hops = %v, collector avg delay = %v", got, want)
	}
	if tree.MaxHops != oracle.MaxDelay() {
		t.Errorf("tree max hops = %d, oracle max delay = %d", tree.MaxHops, oracle.MaxDelay())
	}

	// The histogram saw one observation per non-publisher delivery.
	if got := tel.DeliveryHops.Count(); got != uint64(n-1) {
		t.Errorf("delivery-hops observations = %d, want %d", got, n-1)
	}
	if got, want := tel.DeliveryHops.Sum()/float64(n-1), oracle.AvgDelay(); math.Abs(got-want) > 1e-9 {
		t.Errorf("histogram mean = %v, collector avg delay = %v", got, want)
	}

	// The latency histogram saw the same n-1 remote deliveries (the
	// publisher's 0-hop self-delivery is excluded), measured on the engine
	// clock from the publish stamp carried in each notification.
	if got := tel.DeliveryLatency.Count(); got != uint64(n-1) {
		t.Errorf("delivery-latency observations = %d, want %d", got, n-1)
	}
	if tel.DeliveryLatency.Sum() <= 0 {
		t.Errorf("delivery-latency sum = %v, want > 0 over 10-80ms simulated links",
			tel.DeliveryLatency.Sum())
	}

	// Duplicate accounting: notifications split exactly into first receipts
	// and seen-set duplicates.
	if tot, dup := tel.Notifications.Value(), tel.Duplicates.Value(); tot != dup+uint64(n-1) {
		t.Errorf("notifications = %d, duplicates = %d, want difference %d", tot, dup, n-1)
	}

	// Registry rendering exposes the same numbers under the wire names.
	var promBuf bytes.Buffer
	if err := reg.WritePrometheus(&promBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(promBuf.Bytes(), []byte("vitis_core_deliveries_total 24\n")) {
		t.Errorf("/metrics rendering missing aggregated deliveries:\n%s", promBuf.String())
	}
}

func collectSubscribers(nodes []*Node, tp TopicID) []NodeID {
	var out []NodeID
	for _, nd := range nodes {
		if nd.Alive() && nd.Subscribed(tp) {
			out = append(out, nd.ID())
		}
	}
	return out
}

// TestDisabledTelemetryIsInert pins the zero-cost contract at the node level:
// a node built without hooks shares the package-level disabled bundle and
// never records anything.
func TestDisabledTelemetryIsInert(t *testing.T) {
	tp := Topic("quiet")
	eng := simnet.NewEngine(3)
	net := simnet.NewNetwork(eng, simnet.UniformLatency{Min: 5, Max: 20})
	ids := []NodeID{idspace.HashUint64(1), idspace.HashUint64(2), idspace.HashUint64(3)}
	var nodes []*Node
	for _, id := range ids {
		nd := NewNode(net, id, Params{NetworkSizeEstimate: 3}, Hooks{})
		nd.Subscribe(tp)
		nodes = append(nodes, nd)
	}
	for i, nd := range nodes {
		nd.Join([]NodeID{ids[(i+1)%3]})
	}
	eng.RunUntil(20 * simnet.Second)
	nodes[0].Publish(tp)
	eng.RunUntil(eng.Now() + 5*simnet.Second)

	if nodes[0].tel != disabledMetrics {
		t.Error("node without hooks must share the package-level disabled bundle")
	}
	if v := disabledMetrics.Deliveries.Value(); v != 0 {
		t.Errorf("disabled bundle counted %d deliveries", v)
	}
	if nodes[0].tracer != nil {
		t.Error("node without hooks must have no tracer")
	}
}

// TestClockSkewNotObservedAsLatency: a publisher whose clock runs ahead of
// the receiver's stamps notifications from the receiver's future. Such an
// event is still delivered, but it is counted as clock skew instead of
// landing in the latency histogram as a 0 s sample.
func TestClockSkewNotObservedAsLatency(t *testing.T) {
	eng := simnet.NewEngine(1)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(simnet.Lost))
	tel := telemetry.NewNodeMetrics(telemetry.NewRegistry())
	const now = 10_000 // the receiver's ms clock
	n := NewNode(net, 100, Params{}, Hooks{Metrics: tel, Now: func() int64 { return now }})
	n.Join(nil)
	tp := Topic("skew")
	n.Subscribe(tp)

	n.handleNotification(200, Notification{Topic: tp, Event: EventID{Publisher: 200, Seq: 1}, Hops: 1, PubTime: now - 5})
	before := tel.DeliveryLatency.Count()
	n.handleNotification(200, Notification{Topic: tp, Event: EventID{Publisher: 200, Seq: 2}, Hops: 1, PubTime: now + 250})

	if got := tel.DeliveryLatency.Count(); got != before {
		t.Errorf("latency histogram count %d → %d: a future PubTime was observed", before, got)
	}
	if got := tel.ClockSkew.Value(); got != 1 {
		t.Errorf("clock skew counter = %d, want 1", got)
	}
	if got := tel.Deliveries.Value(); got != 2 {
		t.Errorf("deliveries = %d, want 2 (skew must not drop the event)", got)
	}
}
