package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"vitis/internal/core"
	"vitis/internal/idspace"
	"vitis/internal/simnet"
	"vitis/internal/telemetry"
	"vitis/internal/workload"
)

// simConfig is one simulator workload. Every repetition builds a fresh
// cluster from the same seed, so repetitions must agree on every count.
type simConfig struct {
	nodes, topics, subsPerNode, buckets int
	pattern                             workload.Pattern
	// alpha > 0 draws power-law topic rates, publishes by them and feeds
	// them to the nodes' utility function; 0 is uniform and rate-blind.
	alpha float64
	// warmRounds of gossip are set-up; the window is steadyRounds carrying
	// the events plus drainRounds for in-flight notifications.
	warmRounds, steadyRounds, drainRounds int
	// Either every topic publishes perTopic events, or events are drawn by
	// the topic rates. Both keep the deliveries owed the same for every
	// seed (with balanced subscriptions in the second case), so that the
	// per-delivery metrics do not swing with the luck of which topics the
	// seed happened to pick.
	perTopic, events int
	// balanced draws random subscriptions with equally many subscribers per
	// topic (see balancedSubscriptions) instead of the pattern generator.
	balanced bool
}

// Half the population of a `vitis-bench -fig 5 -scale small` Vitis run (the
// same topics, subscriptions per node and buckets), so that three fresh
// clusters fit a run even when the shared box is at its slowest.
func simConverge(seconds int) simConfig {
	return simConfig{
		nodes: 128, topics: 1000, subsPerNode: 50, buckets: 20,
		pattern:    workload.HighCorrelation,
		warmRounds: 40, steadyRounds: seconds, drainRounds: 5,
		perTopic: 1,
	}
}

// The same nodes with random subscriptions (800 topics, so that each has
// exactly 8 subscribers) and α=1 topic rates, which split every topic into
// several clusters joined by gateways, relay paths and rendezvous nodes; the
// window is dense with events.
func simPublish(seconds int) simConfig {
	return simConfig{
		nodes: 128, topics: 800, subsPerNode: 50, balanced: true, alpha: 1,
		warmRounds: 40, steadyRounds: (seconds + 1) / 2, drainRounds: 4,
		events: 500 * seconds,
	}
}

// repMode selects what a repetition carries besides the protocol.
type repMode struct {
	telemetry bool // live telemetry bundles instead of nil ones
	traced    bool // carrier wrapped in the tracing simnet.Net, hooks timed, readiness probed
}

// rep is one repetition's measurements.
type rep struct {
	firstWindow      bool // the first window measured on its cluster
	setupS, setupCPU float64
	// setupPhases are the wall seconds of a simulator set-up's steps
	// (generate, build, then each warm-up round); see hardSetup.
	setupPhases   []float64
	generateMs    float64
	proc          procDelta
	tally         tally
	wireBytes     uint64
	datagrams     uint64
	engineEvents  uint64
	queueDepth    int
	readyS        float64 // traced runs only; 0 = never ready during set-up
	trace         *traceSummary
	node          nodeTotals
	udp           udpTotals
	catchupDrainS float64
}

// nodeTotals sums the live core telemetry bundles over the nodes.
type nodeTotals struct {
	notifications, duplicates, forwards        uint64
	relayLookups, gatewayChanges, replayServed uint64
}

func sumNodeMetrics(ms []*telemetry.NodeMetrics) nodeTotals {
	var t nodeTotals
	for _, m := range ms {
		t.notifications += m.Notifications.Value()
		t.duplicates += m.Duplicates.Value()
		t.forwards += m.Forwards.Value()
		t.relayLookups += m.RelayLookups.Value()
		t.gatewayChanges += m.GatewayChanges.Value()
		t.replayServed += m.ReplayServed.Value()
	}
	return t
}

func (a nodeTotals) minus(b nodeTotals) nodeTotals {
	return nodeTotals{
		a.notifications - b.notifications, a.duplicates - b.duplicates, a.forwards - b.forwards,
		a.relayLookups - b.relayLookups, a.gatewayChanges - b.gatewayChanges, a.replayServed - b.replayServed,
	}
}

func topicIDs(n int) []core.TopicID {
	out := make([]core.TopicID, n)
	for i := range out {
		out[i] = idspace.HashString(fmt.Sprintf("topic-%d", i))
	}
	return out
}

func nodeIDs(n int) []core.NodeID {
	out := make([]core.NodeID, n)
	for i := range out {
		out[i] = idspace.HashUint64(uint64(i))
	}
	return out
}

// probeEvery is the spacing of readiness-probe rounds during a traced
// simulator set-up, in gossip rounds.
const probeEvery = 4

func (cfg simConfig) subscriptions(seed int64) (*workload.Subscriptions, error) {
	if cfg.balanced {
		return balancedSubscriptions(cfg.nodes, cfg.topics, cfg.subsPerNode, rand.New(rand.NewSource(seed)))
	}
	return workload.Generate(workload.SyntheticConfig{
		Nodes: cfg.nodes, Topics: cfg.topics, SubsPerNode: cfg.subsPerNode,
		Buckets: cfg.buckets, Pattern: cfg.pattern, Seed: seed,
	})
}

// schedule draws the window's publications, sorted by time.
func (cfg simConfig) schedule(subs *workload.Subscriptions, rates []float64, start simnet.Time, seed int64) ([]workload.Publication, error) {
	window := simnet.Time(cfg.steadyRounds) * simnet.Second
	if cfg.perTopic == 0 {
		return workload.GeneratePublications(workload.PublicationConfig{
			Events: cfg.events, Start: start, Window: window, Rates: rates, Subs: subs, Seed: seed,
		})
	}
	rng := rand.New(rand.NewSource(seed))
	var sched []workload.Publication
	for topic, ss := range subs.SubscribersOf() {
		for k := 0; k < cfg.perTopic && len(ss) > 0; k++ {
			sched = append(sched, workload.Publication{
				Topic: topic, Publisher: ss[rng.Intn(len(ss))], At: start + simnet.Time(rng.Int63n(int64(window))),
			})
		}
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].At < sched[j].At })
	return sched, nil
}

// runSimRep builds one cluster, converges it (set-up) and measures one
// window.
func runSimRep(cfg simConfig, seed int64, mode repMode) (*rep, error) {
	r := &rep{firstWindow: true}
	setupStart := snapProc()
	lap := time.Now()
	phase := func() {
		now := time.Now()
		r.setupPhases = append(r.setupPhases, now.Sub(lap).Seconds())
		lap = now
	}

	subs, err := cfg.subscriptions(seed)
	if err != nil {
		return nil, err
	}
	rates := workload.UniformRates(cfg.topics)
	if cfg.alpha > 0 {
		rates = workload.TopicRates(rand.New(rand.NewSource(seed+3)), cfg.topics, cfg.alpha)
	}
	start := simnet.Time(cfg.warmRounds) * simnet.Second
	sched, err := cfg.schedule(subs, rates, start, seed+2)
	if err != nil {
		return nil, err
	}
	phase()
	r.generateMs = r.setupPhases[0] * 1e3

	eng := simnet.NewEngine(seed + 1)
	network := simnet.NewNetwork(eng, simnet.UniformLatency{Min: 10, Max: 80})
	var carrier simnet.Net = network
	var rec *recorder
	if mode.traced {
		rec = newRecorder(time.Now(), 0, 1)
		carrier = &tracedNet{inner: network, rec: rec}
	}
	tids, nids := topicIDs(cfg.topics), nodeIDs(cfg.nodes)
	subsOf := subs.SubscribersOf()
	tr := newTracker(func() int64 { return int64(eng.Now()) }, cfg.nodes, subsOf)
	tr.timeHooks = mode.traced

	var rateFn func(core.TopicID) float64
	if cfg.alpha > 0 {
		byID := make(map[core.TopicID]float64, len(rates))
		for i, rt := range rates {
			byID[tids[i]] = rt
		}
		rateFn = func(t core.TopicID) float64 { return byID[t] }
	}
	nodes := make([]*core.Node, cfg.nodes)
	var bundles []*telemetry.NodeMetrics
	for i := range nodes {
		hooks := core.Hooks{}
		hooks.OnDeliver, hooks.OnNotification = tr.hooks(i)
		if mode.telemetry {
			hooks.Metrics = telemetry.NewNodeMetrics(telemetry.NewRegistry())
			bundles = append(bundles, hooks.Metrics)
		}
		nodes[i] = core.NewNode(carrier, nids[i], core.Params{NetworkSizeEstimate: cfg.nodes}, hooks)
		nodes[i].SetRate(rateFn)
		for _, ti := range subs.Subs[i] {
			nodes[i].Subscribe(tids[ti])
		}
	}
	for i, nd := range nodes {
		nd.Join([]core.NodeID{nids[(i+1)%cfg.nodes], nids[(i+2)%cfg.nodes], nids[(i+3)%cfg.nodes]})
	}
	if mode.traced {
		for round := probeEvery; round < cfg.warmRounds; round += probeEvery {
			round := round
			eng.ScheduleAt(simnet.Time(round)*simnet.Second, func() {
				for topic, ss := range subsOf {
					if len(ss) > 0 {
						ev := nodes[ss[0]].Publish(tids[topic])
						tr.published(ss[0], ev, topic, int64(eng.Now()), 0, round/probeEvery)
					}
				}
			})
		}
	}
	phase()
	for round := 1; round <= cfg.warmRounds; round++ {
		eng.RunUntil(simnet.Time(round) * simnet.Second)
		phase()
	}
	for _, p := range sched {
		p := p
		eng.ScheduleAt(p.At, func() {
			ev := nodes[p.Publisher].Publish(tids[p.Topic])
			tr.published(p.Publisher, ev, p.Topic, int64(eng.Now()), 0, 0)
		})
	}
	if mode.traced {
		// Probe deliveries are virtual ms since the cluster's time 0.
		r.readyS = float64(tr.collect(false).firstReady()) / 1000
		rec.active.Store(true)
	}
	runtime.GC()
	open := snapProc()
	r.setupS = setupStart.until(open).wallS
	r.setupCPU = setupStart.until(open).cpuS()

	sent0, _, _ := network.Stats()
	bytes0, events0, node0 := network.BytesSent(), eng.EventsExecuted(), sumNodeMetrics(bundles)
	eng.RunUntil(start + simnet.Time(cfg.steadyRounds)*simnet.Second/2)
	r.queueDepth = eng.Pending()
	eng.RunUntil(start + simnet.Time(cfg.steadyRounds+cfg.drainRounds)*simnet.Second)
	r.proc = open.until(snapProc())
	sent1, _, _ := network.Stats()
	r.datagrams = sent1 - sent0
	r.wireBytes = network.BytesSent() - bytes0
	r.engineEvents = eng.EventsExecuted() - events0
	r.node = sumNodeMetrics(bundles).minus(node0)
	r.tally = tr.collect(false)
	if rec != nil {
		rec.active.Store(false)
		r.trace = mergeRecorders([]*recorder{rec})
	}
	return r, nil
}
