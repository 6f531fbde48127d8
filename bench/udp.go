package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vitis/internal/core"
	"vitis/internal/simnet"
	"vitis/internal/store"
	"vitis/internal/telemetry"
	"vitis/internal/transport"
	"vitis/internal/workload"
)

// udpConfig is one real-wire-path workload: in-process nodes, each with its
// own UDP socket on 127.0.0.1, host, wall-clock driver, engine and
// core.Node wired as cmd/vitis-node wires them. Traffic crosses the host's
// loopback interface, never a real link.
type udpConfig struct {
	nodes, topics, subsPerNode int
	gossipMs                   simnet.Time // gossip and heartbeat period
	// Every topic has one publisher, an open-loop ticker of pubPeriodMs on
	// the publisher's own engine: it fires on schedule whatever the system
	// does, and latency is timed from the tick's due time.
	pubPeriodMs simnet.Time
	settle      time.Duration
	// An untraced run builds clusters fresh clusters, each with
	// subscriptions and engine seeds of its own derived from the run's seed,
	// and measures windows windows on each, one after the other.
	clusters, windows int
	window            time.Duration // a whole number of chunks, so every publisher fires equally often
	grace             time.Duration // after the window, for deliveries still in flight
	diskStore         bool
	// heldFrac of the subscribers start only after the publish phase and
	// backfill through store catch-up; the window then stays open for
	// catchUpPhase more.
	heldFrac     float64
	catchUpPhase time.Duration
}

// wholeChunks rounds cfg.window down to a whole number of chunks.
func (cfg udpConfig) wholeChunks() udpConfig {
	cfg.window = cfg.window / cfg.chunk() * cfg.chunk()
	return cfg
}

// 48 nodes at 24 ev/s in total: nearly everything on the wire is gossip.
func udpIdle(seconds int) udpConfig {
	return udpConfig{
		nodes: 48, topics: 24, subsPerNode: 3, gossipMs: 500, pubPeriodMs: 1000,
		settle: 6 * time.Second, clusters: 1, windows: 3, grace: 300 * time.Millisecond,
		window: time.Duration(seconds) * time.Second / 3,
	}.wholeChunks()
}

// 32 nodes at 200 ev/s in total (about a third of the one P, so that p50
// stays flat when the box slows down): data frames dominate. The flooding
// cost of a 16-subscriber topic follows the friend graph the seed's
// subscriptions lead to (datagrams per delivery 9.5 to 10.9 over ten seeds),
// so a run measures two clusters drawn apart.
func udpLoad(seconds int) udpConfig {
	return udpConfig{
		nodes: 32, topics: 8, subsPerNode: 4, gossipMs: 500, pubPeriodMs: 40,
		settle: 6 * time.Second, clusters: 2, windows: 2, grace: 300 * time.Millisecond,
		window: time.Duration(seconds) * time.Second / 4,
	}.wholeChunks()
}

// 24 nodes with a disk store each, 160 ev/s; a quarter of the subscribers
// join after the publish phase.
func udpCatchUp(seconds int) udpConfig {
	return udpConfig{
		nodes: 24, topics: 8, subsPerNode: 4, gossipMs: 500, pubPeriodMs: 50,
		settle: 4 * time.Second, clusters: 2, windows: 1, grace: 300 * time.Millisecond,
		window:    time.Duration(seconds) * time.Second / 4,
		diskStore: true, heldFrac: 0.25, catchUpPhase: 3 * time.Second,
	}.wholeChunks()
}

// balancedSubscriptions draws random subscriptions in which every node has
// exactly perNode topics and every topic exactly nodes·perNode/topics
// subscribers. With a few dozen nodes, plain random draws give topics of
// very unequal size, and since a topic's flooding cost grows with the square
// of its size the per-delivery counts would then swing with the seed by more
// than any change they are meant to show.
func balancedSubscriptions(nodes, topics, perNode int, rng *rand.Rand) (*workload.Subscriptions, error) {
	if nodes*perNode%topics != 0 || perNode > topics {
		return nil, fmt.Errorf("cannot balance %d nodes x %d subscriptions over %d topics", nodes, perNode, topics)
	}
	slots := make([]int, 0, nodes*perNode)
	for t := 0; t < topics; t++ {
		for k := 0; k < nodes*perNode/topics; k++ {
			slots = append(slots, t)
		}
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	// Node n holds slots[n*perNode:(n+1)*perNode]. A topic dealt twice to
	// one node is swapped with a random slot of another node whenever the
	// swap leaves both nodes without a repeat.
	has := func(node, topic, except int) bool {
		for p := node * perNode; p < (node+1)*perNode; p++ {
			if p != except && slots[p] == topic {
				return true
			}
		}
		return false
	}
	for p := range slots {
		for tries := 0; has(p/perNode, slots[p], p); tries++ {
			if tries > 10000 {
				return nil, fmt.Errorf("balancing subscriptions did not converge")
			}
			q := rng.Intn(len(slots))
			if q/perNode != p/perNode && !has(p/perNode, slots[q], p) && !has(q/perNode, slots[p], q) {
				slots[p], slots[q] = slots[q], slots[p]
			}
		}
	}
	subs := &workload.Subscriptions{Nodes: nodes, Topics: topics, Subs: make([][]int, nodes)}
	for n := range subs.Subs {
		subs.Subs[n] = append([]int(nil), slots[n*perNode:(n+1)*perNode]...)
		sort.Ints(subs.Subs[n])
	}
	return subs, nil
}

type udpNode struct {
	id      core.NodeID
	udp     *transport.UDP
	eng     *simnet.Engine
	host    *transport.Host
	node    *core.Node
	store   *store.DiskStore
	metrics *telemetry.NodeMetrics
	rec     *recorder
	held    bool
	boot    []core.NodeID
}

// winSpec is the open window on the harness clock: a tick whose due time
// falls in [open, end) publishes a measured event.
type winSpec struct{ open, end int64 }

type udpCluster struct {
	cfg     udpConfig
	mode    repMode
	base    time.Time
	nodes   []*udpNode
	tr      *tracker
	win     atomic.Pointer[winSpec]
	probing atomic.Bool
	// expected counts the deliveries owed for the measured events published
	// so far; the catch-up wait compares tracker.delivered against it.
	expected atomic.Int64

	cancel  context.CancelFunc
	ctx     context.Context
	drivers sync.WaitGroup
	tmpDir  string
}

func (c *udpCluster) clock() int64 { return int64(time.Since(c.base)) }

// udpTotals sums the transports', hosts' and stores' public counters.
type udpTotals struct {
	txFrames, txDatagrams, txBytes, txDropped, rxUnroutable uint64
	hostReceived, inboxDrops                                uint64
	storeAppends                                            uint64
	storeSegments                                           int
	engineEvents                                            uint64
	flushersPeak, goroutinesPeak                            int
}

func (c *udpCluster) totals() udpTotals {
	var t udpTotals
	for _, n := range c.nodes {
		uc, hc := n.udp.Counters(), n.host.Counters()
		t.txFrames += uc.TxFrames
		t.txDatagrams += uc.TxDatagrams
		t.txBytes += uc.TxBytes
		t.txDropped += uc.TxDropped
		t.rxUnroutable += uc.RxUnroutable
		t.hostReceived += hc.Received
		t.inboxDrops += hc.InboxDrops
		t.engineEvents += n.eng.EventsExecuted()
		if n.store != nil {
			st := n.store.Stats()
			t.storeAppends += uint64(st.Records)
			t.storeSegments += st.Segments
		}
	}
	return t
}

func (a udpTotals) minus(b udpTotals) udpTotals {
	a.txFrames -= b.txFrames
	a.txDatagrams -= b.txDatagrams
	a.txBytes -= b.txBytes
	a.txDropped -= b.txDropped
	a.rxUnroutable -= b.rxUnroutable
	a.hostReceived -= b.hostReceived
	a.inboxDrops -= b.inboxDrops
	a.engineEvents -= b.engineEvents
	a.storeAppends -= b.storeAppends
	return a
}

func (c *udpCluster) nodeMetrics() nodeTotals {
	var ms []*telemetry.NodeMetrics
	for _, n := range c.nodes {
		if n.metrics != nil {
			ms = append(ms, n.metrics)
		}
	}
	return sumNodeMetrics(ms)
}

// buildUDPCluster creates the nodes, joins the live ones and starts their
// drivers. outDir holds the per-node store directories.
func buildUDPCluster(cfg udpConfig, seed int64, mode repMode, outDir string) (_ *udpCluster, genMs float64, err error) {
	genStart := time.Now()
	subs, err := balancedSubscriptions(cfg.nodes, cfg.topics, cfg.subsPerNode, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, 0, err
	}
	genMs = float64(time.Since(genStart)) / 1e6
	subsOf := subs.SubscribersOf()
	tids, nids := topicIDs(cfg.topics), nodeIDs(cfg.nodes)

	c := &udpCluster{cfg: cfg, mode: mode, base: time.Now()}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.tr = newTracker(c.clock, cfg.nodes, subsOf)
	c.tr.timeHooks = mode.traced
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	if cfg.diskStore {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, 0, err
		}
		if c.tmpDir, err = os.MkdirTemp(outDir, "stores-"); err != nil {
			return nil, 0, err
		}
	}

	// The last heldFrac of the nodes start late; every topic's publisher is
	// its first subscriber that is up from the start.
	firstHeld := cfg.nodes - int(float64(cfg.nodes)*cfg.heldFrac)
	c.tr.late = make([]bool, cfg.nodes)
	for i := 0; i < cfg.nodes; i++ {
		n := &udpNode{id: nids[i], held: i >= firstHeld}
		c.tr.late[i] = n.held
		c.nodes = append(c.nodes, n)
		tcfg := transport.UDPConfig{}
		var hostMetrics *telemetry.HostMetrics
		hooks := core.Hooks{Now: func() int64 { return time.Now().UnixMilli() }}
		hooks.OnDeliver, hooks.OnNotification = c.tr.hooks(i)
		var reg *telemetry.Registry
		if mode.telemetry {
			reg = telemetry.NewRegistry()
			tcfg.Metrics = telemetry.NewTransportMetrics(reg)
			hostMetrics = telemetry.NewHostMetrics(reg)
			n.metrics = telemetry.NewNodeMetrics(reg)
			hooks.Metrics = n.metrics
		}
		if n.udp, err = transport.ListenUDP("127.0.0.1:0", tcfg); err != nil {
			return nil, 0, err
		}
		n.eng = simnet.NewEngine(seed*1000 + int64(i) + 1)
		n.host = transport.NewHost(n.eng, n.udp, hostMetrics)
		if cfg.diskStore {
			scfg := store.DiskConfig{}
			if reg != nil {
				scfg.Metrics = telemetry.NewStoreMetrics(reg)
			}
			if n.store, err = store.OpenDisk(filepath.Join(c.tmpDir, fmt.Sprintf("node-%d", i)), scfg); err != nil {
				return nil, 0, err
			}
			hooks.Store = n.store
		}
		var carrier simnet.Net = n.host
		if mode.traced {
			n.rec = newRecorder(c.base, i, cfg.nodes)
			carrier = &tracedNet{inner: n.host, rec: n.rec}
		}
		n.node = core.NewNode(carrier, n.id, core.Params{
			GossipPeriod: cfg.gossipMs, HeartbeatPeriod: cfg.gossipMs, Recovery: true,
		}, hooks)
		for _, ti := range subs.Subs[i] {
			n.node.Subscribe(tids[ti])
		}
	}
	// Every node is told the socket addresses of its three bootstrap peers
	// (the next three ids that are up from the start); all other addresses
	// spread through the envelopes' epidemic address hints.
	for i, n := range c.nodes {
		for j := 1; len(n.boot) < 3; j++ {
			p := c.nodes[(i+j)%firstHeld]
			if p == n {
				continue
			}
			n.boot = append(n.boot, p.id)
			if err := n.udp.SetPeer(p.id, p.udp.LocalAddr().String()); err != nil {
				return nil, 0, err
			}
		}
	}
	for topic, ss := range subsOf {
		for _, i := range ss {
			if !c.nodes[i].held {
				c.startPublisher(i, topic, tids[topic])
				break
			}
		}
	}
	for _, n := range c.nodes {
		if !n.held {
			c.start(n)
		}
	}
	return c, genMs, nil
}

// start joins a node and hands its engine to a wall-clock driver. Nothing
// may touch the node from the harness afterwards except through atomics.
func (c *udpCluster) start(n *udpNode) {
	n.node.Join(n.boot)
	if n.held {
		n.node.StartCatchUp()
	}
	drv := transport.NewDriver(n.host)
	c.drivers.Add(1)
	go func() {
		defer c.drivers.Done()
		drv.Run(c.ctx)
	}()
}

// probeRound is the spacing of readiness probes during a traced settle.
const probeRound = 500 * time.Millisecond

// startPublisher installs topic's open-loop generator on node i's engine.
func (c *udpCluster) startPublisher(i, topic int, tid core.TopicID) {
	n := c.nodes[i]
	round := int64(probeRound)
	if p := int64(c.cfg.pubPeriodMs) * int64(time.Millisecond); p > round {
		round = p
	}
	lastProbe := int64(0)
	n.eng.Every(c.cfg.pubPeriodMs, func() bool {
		at := int64(n.eng.Now())
		wall := c.clock()
		due := c.tr.calibrate(i, wall, at)
		if w := c.win.Load(); w != nil && due >= w.open && due < w.end {
			ev := n.node.Publish(tid)
			c.tr.published(i, ev, topic, at, wall, 0)
			c.expected.Add(int64(len(c.tr.subsOf[topic])))
		} else if r := due/round + 1; c.probing.Load() && r > lastProbe {
			lastProbe = r
			ev := n.node.Publish(tid)
			c.tr.published(i, ev, topic, at, wall, int(r))
		}
		return true
	})
}

func (c *udpCluster) sleepUntil(t int64) {
	if d := time.Duration(t - c.clock()); d > 0 {
		time.Sleep(d)
	}
}

// chunk is the longer of the gossip and publish periods: a window of whole
// chunks holds the same work wherever it starts (one gossip round per node
// and timer per period, equally many publishes per publisher).
func (cfg udpConfig) chunk() time.Duration {
	return time.Duration(max(cfg.gossipMs, cfg.pubPeriodMs)) * time.Millisecond
}

// measureWindow opens one window, waits it out and returns its
// measurements; set-up fields are left to the caller. Everything is
// measured over [open, end); a grace period follows so that stragglers
// still count as delivered, and in udp-catchup the late starters' backfill
// phase extends the window.
func (c *udpCluster) measureWindow() *rep {
	r := &rep{}
	runtime.GC()
	w := &winSpec{open: c.clock() + 30*int64(time.Millisecond)}
	w.end = w.open + int64(c.cfg.window)
	c.expected.Store(0)
	delivered0 := c.tr.delivered.Load()
	c.win.Store(w)
	c.sleepUntil(w.open)

	for _, n := range c.nodes {
		if n.rec != nil {
			n.rec.active.Store(true)
		}
	}
	stopPeaks := c.watchPeaks()
	open := snapProc()
	t0, n0 := c.totals(), c.nodeMetrics()
	c.sleepUntil(w.end)
	end, t1, n1 := snapProc(), c.totals(), c.nodeMetrics()
	c.sleepUntil(w.end + int64(c.cfg.grace))
	if c.cfg.heldFrac > 0 {
		released := c.clock()
		for _, n := range c.nodes {
			if n.held {
				c.start(n)
			}
		}
		// The backfill phase has a fixed length, so that whatever accrues
		// with time (gossip bytes, mallocs) is the same in every run;
		// drain_s is when the last owed delivery arrived.
		r.catchupDrainS = c.cfg.catchUpPhase.Seconds()
		for c.clock() < released+int64(c.cfg.catchUpPhase) {
			if c.tr.delivered.Load()-delivered0 >= c.expected.Load() {
				r.catchupDrainS = min(r.catchupDrainS, float64(c.clock()-released)/1e9)
			}
			time.Sleep(5 * time.Millisecond)
		}
		end, t1, n1 = snapProc(), c.totals(), c.nodeMetrics()
	}
	for _, n := range c.nodes {
		if n.rec != nil {
			n.rec.active.Store(false)
		}
	}
	r.proc = open.until(end)
	t1.flushersPeak, t1.goroutinesPeak = stopPeaks()
	r.udp = t1.minus(t0)
	r.node = n1.minus(n0)
	r.wireBytes, r.datagrams, r.engineEvents = r.udp.txBytes, r.udp.txDatagrams, r.udp.engineEvents
	r.tally = c.tr.collect(true)
	return r
}

// watchPeaks samples goroutine counts during a traced window; the returned
// function stops the sampler, waits for it and reports the peaks.
func (c *udpCluster) watchPeaks() (stop func() (flushers, goroutines int)) {
	if !c.mode.traced {
		return func() (int, int) { return 0, 0 }
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var flushers, goroutines int
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			f := 0
			for _, n := range c.nodes {
				f += n.udp.Counters().Goroutines
			}
			flushers = max(flushers, f)
			goroutines = max(goroutines, runtime.NumGoroutine())
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() (int, int) {
		close(done)
		wg.Wait()
		return flushers, goroutines
	}
}

// close stops the drivers, then the transports and stores, and waits for
// each; it also removes the store directories.
func (c *udpCluster) close() error {
	c.cancel()
	c.drivers.Wait()
	var first error
	for _, n := range c.nodes {
		if n.udp != nil {
			if err := n.udp.Close(); err != nil && first == nil {
				first = err
			}
		}
		if n.store != nil {
			if err := n.store.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if c.tmpDir != "" {
		if err := os.RemoveAll(c.tmpDir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// runUDPCluster sets one cluster up, measures cfg.windows windows on it and
// tears it down. Every returned rep carries the cluster's set-up numbers.
func runUDPCluster(cfg udpConfig, seed int64, mode repMode, outDir string) ([]*rep, error) {
	setupStart := snapProc()
	c, genMs, err := buildUDPCluster(cfg, seed, mode, outDir)
	if err != nil {
		return nil, err
	}
	c.probing.Store(mode.traced)
	time.Sleep(cfg.settle)
	c.probing.Store(false)
	readyS := 0.0
	if mode.traced {
		time.Sleep(100 * time.Millisecond) // let the last probes land
		readyS = float64(c.tr.collect(true).firstReady()) / 1e9
	}
	setup := setupStart.until(snapProc())

	var reps []*rep
	for w := 0; w < cfg.windows; w++ {
		r := c.measureWindow()
		r.firstWindow = w == 0
		r.setupS, r.setupCPU, r.generateMs, r.readyS = setup.wallS, setup.cpuS(), genMs, readyS
		reps = append(reps, r)
	}
	var recs []*recorder
	for _, n := range c.nodes {
		if n.rec != nil {
			recs = append(recs, n.rec)
		}
	}
	if err := c.close(); err != nil {
		return nil, err
	}
	if len(recs) > 0 {
		reps[len(reps)-1].trace = mergeRecorders(recs)
	}
	return reps, nil
}
