// Package experiments contains one driver per table/figure of the paper's
// evaluation (§IV). Each driver builds the workload, runs the requested
// system(s) on the discrete-event simulator, and returns a plain-text table
// whose rows mirror the figure's axes. Sizes default to a scaled-down
// configuration that runs in seconds; Scale.Paper() reproduces the paper's
// 10,000-node setup.
package experiments

import (
	"fmt"

	"vitis/internal/core"
	"vitis/internal/idspace"
	"vitis/internal/metrics"
	"vitis/internal/opt"
	"vitis/internal/ring"
	"vitis/internal/rvr"
	"vitis/internal/simnet"
	"vitis/internal/workload"
)

// System selects which publish/subscribe implementation to run.
type System int

// The three systems compared by the paper.
const (
	// Vitis is the paper's contribution (internal/core).
	Vitis System = iota
	// RVR is the structured rendezvous-routing baseline.
	RVR
	// OPT is the overlay-per-topic baseline.
	OPT
)

// String names the system.
func (s System) String() string {
	switch s {
	case Vitis:
		return "Vitis"
	case RVR:
		return "RVR"
	case OPT:
		return "OPT"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// node abstracts the three node implementations for the runner and the
// churn driver: membership, publishing with a comparable event key, and
// the routing-table degree.
type node interface {
	ID() simnet.NodeID
	Subscribe(t idspace.ID)
	Subscribed(t idspace.ID) bool
	Join(bootstrap []simnet.NodeID)
	Leave()
	Alive() bool
	publish(t idspace.ID) any
	degree() int
}

type vitisNode struct{ *core.Node }

func (n vitisNode) publish(t idspace.ID) any { return n.Node.Publish(t) }
func (n vitisNode) degree() int              { return len(n.RoutingTable()) }

type rvrNode struct{ *rvr.Node }

func (n rvrNode) publish(t idspace.ID) any { return n.Node.Publish(t) }
func (n rvrNode) degree() int              { return len(n.RoutingTable()) }

type optNode struct{ *opt.Node }

func (n optNode) publish(t idspace.ID) any { return n.Node.Publish(t) }
func (n optNode) degree() int              { return n.Degree() }

// newNode builds node id of system sys, reporting to col: the one place the
// runner and the churn driver configure the three systems. netSize is the
// Symphony network-size estimate; the other knobs are RunConfig's (zero =
// package defaults). Vitis's rate and proximity setup stays with the runner.
func newNode(sys System, net *simnet.Network, id simnet.NodeID, col *metrics.Oracle, netSize, rtSize, swLinks, gatewayHops, optMaxDegree int) node {
	deliver := func(at simnet.NodeID, _ idspace.ID, ev ring.EventID, hops int) {
		col.Deliver(ev, at, hops)
	}
	notify := func(at simnet.NodeID, _ idspace.ID, interested bool) {
		col.Notification(at, interested)
	}
	switch sys {
	case Vitis:
		return vitisNode{core.NewNode(net, id, core.Params{
			RTSize:              rtSize,
			SWLinks:             swLinks,
			GatewayHops:         gatewayHops,
			NetworkSizeEstimate: netSize,
		}, core.Hooks{OnDeliver: deliver, OnNotification: notify})}
	case RVR:
		return rvrNode{rvr.NewNode(net, id, rvr.Params{
			RTSize:              rtSize,
			NetworkSizeEstimate: netSize,
		}, rvr.Hooks{OnDeliver: deliver, OnNotification: notify})}
	default:
		return optNode{opt.NewNode(net, id, opt.Params{
			MaxDegree: optMaxDegree,
		}, opt.Hooks{OnDeliver: deliver, OnNotification: notify})}
	}
}

// RunConfig describes one simulation run.
type RunConfig struct {
	System System
	Subs   *workload.Subscriptions
	// Rates are per-topic publication rates (len == Subs.Topics); nil
	// means uniform.
	Rates []float64
	// Events is the number of events to publish during the measurement
	// window.
	Events int
	// WarmupRounds is the number of gossip rounds (simulated seconds)
	// before measurement starts.
	WarmupRounds int
	// MeasureRounds is the length of the publication window in rounds.
	MeasureRounds int
	// DrainRounds run after the last publication so in-flight events
	// settle.
	DrainRounds int

	// Protocol knobs (zero = package defaults).
	RTSize       int
	SWLinks      int
	GatewayHops  int
	OPTMaxDegree int // 0 = unbounded

	// RateOblivious publishes with the skewed Rates schedule but hides the
	// rates from the nodes' utility function (the RateAwareness ablation).
	RateOblivious bool

	// UseCoordinates switches to a coordinate-based latency model (every
	// node gets a random point in a 1000×1000 space; latency grows with
	// distance). ProximityWeight > 0 additionally feeds the proximity
	// into Vitis's preference function — the §III-A2 physical-topology
	// extension.
	UseCoordinates  bool
	ProximityWeight float64

	// LossProb drops each message independently with this probability,
	// modelling congestion loss (the source of §III-D's failure-detection
	// false positives).
	LossProb float64

	// InspectVitis, if set and System == Vitis, receives the node
	// instances after the run for structural analysis (cluster counts,
	// DOT export, ...).
	InspectVitis func([]*core.Node)

	// ExtraObserver, if set, is attached to the network (control-traffic
	// accounting, custom tracing, ...).
	ExtraObserver simnet.Observer

	Seed int64
}

func (c *RunConfig) setDefaults() {
	if c.Events == 0 {
		c.Events = 100
	}
	if c.WarmupRounds == 0 {
		c.WarmupRounds = 40
	}
	if c.MeasureRounds == 0 {
		c.MeasureRounds = 20
	}
	if c.DrainRounds == 0 {
		c.DrainRounds = 15
	}
}

// RunResult aggregates a run's measurements.
type RunResult struct {
	HitRatio float64
	Overhead float64 // ratio in [0,1]
	AvgDelay float64 // hops
	// PerNodeOverheadPct is the Fig. 5 distribution (whole population).
	PerNodeOverheadPct []float64
	// Degrees holds the final routing-table sizes (Fig. 11 for OPT).
	Degrees []int
	// AvgNotifLatencyMs is the mean physical latency per notification
	// link (only populated when UseCoordinates is set).
	AvgNotifLatencyMs float64
	// EventsExecuted and BytesOnWire are the run's engine event count and
	// estimated wire bytes — the raw volumes behind events/sec and
	// bandwidth reporting (also aggregated process-wide, see Totals).
	EventsExecuted uint64
	BytesOnWire    uint64
	// Oracle gives access to everything else.
	Oracle *metrics.Oracle
}

// notifObserver counts notification deliveries for the proximity ablation.
type notifObserver struct {
	fn func(from, to simnet.NodeID)
}

func (o notifObserver) OnSend(from, to simnet.NodeID, msg simnet.Message) {}
func (o notifObserver) OnDrop(from, to simnet.NodeID, msg simnet.Message) {}
func (o notifObserver) OnDeliver(from, to simnet.NodeID, msg simnet.Message) {
	switch msg.(type) {
	case core.Notification, rvr.Notification, opt.Notification:
		o.fn(from, to)
	}
}

// topicIDs precomputes identifier-space ids for topic indices.
func topicIDs(n int) []idspace.ID {
	out := make([]idspace.ID, n)
	for i := range out {
		out[i] = idspace.HashString(fmt.Sprintf("topic-%d", i))
	}
	return out
}

func nodeIDs(n int) []simnet.NodeID {
	out := make([]simnet.NodeID, n)
	for i := range out {
		out[i] = idspace.HashUint64(uint64(i))
	}
	return out
}

// Run executes one static-membership simulation and returns its metrics.
func Run(cfg RunConfig) (*RunResult, error) {
	cfg.setDefaults()
	if cfg.Subs == nil {
		return nil, fmt.Errorf("experiments: RunConfig.Subs is required")
	}
	if cfg.System < Vitis || cfg.System > OPT {
		return nil, fmt.Errorf("experiments: unknown system %v", cfg.System)
	}
	n := cfg.Subs.Nodes
	eng := simnet.NewEngine(cfg.Seed + 1)

	tids := topicIDs(cfg.Subs.Topics)
	nids := nodeIDs(n)

	var latency simnet.LatencyModel = simnet.UniformLatency{Min: 10, Max: 80}
	var coords map[simnet.NodeID]simnet.Coord
	const extent = 1000.0
	if cfg.UseCoordinates {
		coords = simnet.RandomCoords(eng.DeriveRNG('c'), nids, extent)
		latency = simnet.CoordLatency{Coords: coords, Base: 5, PerUnit: 0.08, Fallback: 60}
	}
	if cfg.LossProb > 0 {
		latency = simnet.Lossy{Inner: latency, DropProb: cfg.LossProb}
	}
	net := simnet.NewNetwork(eng, latency)
	col := metrics.New()
	if cfg.ExtraObserver != nil {
		net.AddObserver(cfg.ExtraObserver)
	}

	// Physical-latency accounting for the proximity ablation: sum the
	// coordinate latency of every delivered notification link.
	var notifLinks int
	var notifLatency float64
	if cfg.UseCoordinates {
		net.AddObserver(notifObserver{fn: func(from, to simnet.NodeID) {
			notifLinks++
			notifLatency += float64(simnet.CoordLatency{Coords: coords, Base: 5, PerUnit: 0.08, Fallback: 60}.Latency(nil, from, to))
		}})
	}

	var rateFn func(idspace.ID) float64
	if cfg.Rates != nil && !cfg.RateOblivious {
		rateByID := make(map[idspace.ID]float64, len(cfg.Rates))
		for i, r := range cfg.Rates {
			rateByID[tids[i]] = r
		}
		rateFn = func(t idspace.ID) float64 { return rateByID[t] }
	}

	nodes := make([]node, n)
	for i := 0; i < n; i++ {
		nodes[i] = newNode(cfg.System, net, nids[i], col, n, cfg.RTSize, cfg.SWLinks, cfg.GatewayHops, cfg.OPTMaxDegree)
		if v, ok := nodes[i].(vitisNode); ok {
			v.SetRate(rateFn)
			if cfg.UseCoordinates && cfg.ProximityWeight > 0 {
				self := coords[nids[i]]
				maxDist := extent * 1.5 // diagonal, roughly
				v.SetProximity(func(peer core.NodeID) float64 {
					pc, ok := coords[peer]
					if !ok {
						return 0
					}
					return 1 - self.Distance(pc)/maxDist
				}, cfg.ProximityWeight)
			}
		}
		for _, ti := range cfg.Subs.Subs[i] {
			nodes[i].Subscribe(tids[ti])
		}
	}
	for i, nd := range nodes {
		var boot []simnet.NodeID
		for j := 1; j <= 3; j++ {
			boot = append(boot, nids[(i+j)%n])
		}
		nd.Join(boot)
	}

	// Warmup: let the overlay converge.
	eng.RunUntil(simnet.Time(cfg.WarmupRounds) * simnet.Second)

	// Publication schedule over the measurement window.
	rates := cfg.Rates
	if rates == nil {
		rates = workload.UniformRates(cfg.Subs.Topics)
	}
	sched, err := workload.GeneratePublications(workload.PublicationConfig{
		Events: cfg.Events,
		Start:  eng.Now(),
		Window: simnet.Time(cfg.MeasureRounds) * simnet.Second,
		Rates:  rates,
		Subs:   cfg.Subs,
		Seed:   cfg.Seed + 2,
	})
	if err != nil {
		return nil, err
	}
	subsOf := cfg.Subs.SubscribersOf()
	for _, p := range sched {
		p := p
		eng.ScheduleAt(p.At, func() {
			topic := tids[p.Topic]
			var expected []simnet.NodeID
			for _, si := range subsOf[p.Topic] {
				if nodes[si].Alive() {
					expected = append(expected, nids[si])
				}
			}
			ev := nodes[p.Publisher].publish(topic)
			col.RecordPublish(ev, topic, eng.Now(), expected)
			// The publisher's own delivery hook fired inside publish,
			// before the event was registered; re-record it.
			if nodes[p.Publisher].Subscribed(topic) {
				col.Deliver(ev, nids[p.Publisher], 0)
			}
		})
	}

	eng.RunUntil(simnet.Time(cfg.WarmupRounds+cfg.MeasureRounds+cfg.DrainRounds) * simnet.Second)

	res := &RunResult{
		HitRatio:           col.HitRatio(),
		Overhead:           col.OverheadRatio(),
		AvgDelay:           col.AvgDelay(),
		PerNodeOverheadPct: col.PerNodeOverheadPct(nids),
		EventsExecuted:     eng.EventsExecuted(),
		BytesOnWire:        net.BytesSent(),
		Oracle:             col,
	}
	addRunTotals(res.EventsExecuted, res.BytesOnWire)
	if notifLinks > 0 {
		res.AvgNotifLatencyMs = notifLatency / float64(notifLinks)
	}
	if cfg.InspectVitis != nil && cfg.System == Vitis {
		impl := make([]*core.Node, 0, n)
		for _, nd := range nodes {
			if v, ok := nd.(vitisNode); ok {
				impl = append(impl, v.Node)
			}
		}
		cfg.InspectVitis(impl)
	}
	for _, nd := range nodes {
		res.Degrees = append(res.Degrees, nd.degree())
	}
	return res, nil
}
