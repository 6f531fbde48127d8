// Command vitis-cluster launches a real Vitis cluster on one machine: a
// bootstrap server plus N vitis-node processes, each with its own UDP
// socket, driven by the synthetic workload generator (internal/workload)
// as live publish load. It waits for every node to join, lets the
// publishers run for a fixed window, scrapes every node's /metrics
// endpoint into one aggregated table, checks delivery against the exact
// expected count (per-topic published × subscribers), and optionally
// writes a benchmark JSON summary.
//
// A 100-node run at defaults:
//
//	go build -o /tmp/vitis-node ./cmd/vitis-node
//	vitis-cluster -node-bin /tmp/vitis-node -nodes 100 -bench-out BENCH.json
//
// The process exits non-zero when delivery falls below -min-delivery or
// when goroutine counts grow by more than one per node across two
// post-drain scrapes (a leak detector: a node's goroutine population does
// not depend on how many peers it knows, so steady-state gossip must not
// mint new ones).
//
// With -offline-frac F, every node runs with a durable event store and a
// fraction F of the subscribers is held offline for the whole publish
// window. Once the online cluster drains, the offline subscribers start,
// join, and must backfill everything they missed from their neighbors'
// stores (the catch-up protocol); the delivery ratio then measures
// completeness over the full subscriber set, offline nodes included, and
// the table gains the vitis_store_* rows:
//
//	vitis-cluster -nodes 100 -offline-frac 0.2 -min-delivery 0.999
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"vitis/internal/harness"
	"vitis/internal/workload"
)

// Deadlines and cadences of a run. They bound a cluster on one machine and
// are not part of the workload, so they are not flags.
const (
	joinTimeout   = 3 * time.Minute // every node joins within this
	drainTimeout  = 3 * time.Minute // counters go quiet within this after the window, and again after catch-up
	stableFor     = 3 * time.Second // unchanged this long counts as drained; also the leak probe's gap
	scrapeEvery   = time.Second     // monitor scrape cadence
	scrapeWorkers = 16              // concurrent /metrics fetches per scrape
)

func main() {
	cfg := clusterConfig{}
	flag.IntVar(&cfg.nodes, "nodes", 100, "number of vitis-node processes (excluding the bootstrap server)")
	flag.IntVar(&cfg.topics, "topics", 20, "number of topics in the synthetic workload")
	flag.IntVar(&cfg.subsPerNode, "subs-per-node", 5, "subscriptions per node (workload pattern: random)")
	flag.Float64Var(&cfg.alpha, "alpha", 1.0, "power-law exponent of per-topic publish rates (0 = uniform)")
	flag.Float64Var(&cfg.totalRate, "rate", 10, "cluster-wide publish rate in events/sec, split across topics")
	flag.DurationVar(&cfg.publishFor, "publish-for", 30*time.Second, "publish window per node, measured from the end of its settle delay")
	flag.DurationVar(&cfg.settle, "settle", 5*time.Second, "per-node delay between joining and publishing, letting the overlay converge")
	flag.Int64Var(&cfg.periodMs, "period-ms", 500, "gossip and heartbeat period handed to every node")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload and identity seed")
	flag.StringVar(&cfg.nodeBin, "node-bin", "", "path to the vitis-node binary (default: build it with 'go build')")
	flag.StringVar(&cfg.benchOut, "bench-out", "", "write a benchmark JSON summary to this file")
	flag.Float64Var(&cfg.minDelivery, "min-delivery", 0, "exit non-zero when delivery ratio falls below this")
	flag.Float64Var(&cfg.offlineFrac, "offline-frac", 0,
		"fraction of subscriber nodes held offline during the publish window, rejoining afterwards to catch up from stores (0 = off)")
	flag.StringVar(&cfg.storeDir, "store-dir", "",
		"root directory for per-node event stores; setting it gives every node a store (default with -offline-frac: a temp dir, removed on exit)")
	flag.BoolVar(&cfg.dash, "dash", false, "repaint a live ANSI dashboard on stdout after every scrape")
	flag.StringVar(&cfg.dashAddr, "dash-addr", "", "HTTP address serving the live dashboard and /api/series (empty = off)")
	flag.BoolVar(&cfg.alertsGate, "alerts-gate", false, "exit non-zero when any alert rule fired at any point during the run")
	flag.BoolVar(&cfg.verbose, "v", false, "log per-node progress")
	flag.Parse()

	sum, err := runCluster(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vitis-cluster: %v\n", err)
		os.Exit(1)
	}
	if cfg.alertsGate && len(sum.AlertsFired) > 0 {
		fmt.Fprintf(os.Stderr, "vitis-cluster: -alerts-gate: %d alert(s) fired during the run: %s\n",
			len(sum.AlertsFired), strings.Join(sum.AlertsFired, ", "))
		os.Exit(1)
	}
	if cfg.minDelivery > 0 && sum.DeliveryRatio < cfg.minDelivery {
		fmt.Fprintf(os.Stderr, "vitis-cluster: delivery ratio %.4f below -min-delivery %.4f\n",
			sum.DeliveryRatio, cfg.minDelivery)
		os.Exit(1)
	}
	if sum.GoroutineGrowth > int64(sum.Nodes) {
		fmt.Fprintf(os.Stderr, "vitis-cluster: goroutines grew by %d at steady state (budget %d, one per node) — leak?\n",
			sum.GoroutineGrowth, sum.Nodes)
		os.Exit(1)
	}
}

type clusterConfig struct {
	nodes, topics, subsPerNode int
	alpha, totalRate           float64
	minDelivery                float64
	publishFor, settle         time.Duration
	periodMs, seed             int64
	nodeBin, benchOut          string
	offlineFrac                float64
	storeDir                   string
	dash                       bool
	dashAddr                   string
	alertsGate                 bool
	verbose                    bool
}

// summary is the aggregated outcome of one cluster run; serialised into
// the -bench-out file.
type summary struct {
	Nodes            int     `json:"nodes"`
	Topics           int     `json:"topics"`
	SubsPerNode      int     `json:"subs_per_node"`
	Alpha            float64 `json:"alpha"`
	TotalRate        float64 `json:"total_rate_events_per_sec"`
	PublishWindowSec float64 `json:"publish_window_sec"`
	PeriodMs         int64   `json:"period_ms"`

	JoinSec          float64 `json:"join_sec"`
	DurationSec      float64 `json:"load_duration_sec"`
	Published        uint64  `json:"published"`
	Expected         uint64  `json:"expected_deliveries"`
	Delivered        uint64  `json:"delivered"`
	DeliveryRatio    float64 `json:"delivery_ratio"`
	MsgsPerSec       float64 `json:"delivered_msgs_per_sec"`
	MsgsPerSecCore   float64 `json:"delivered_msgs_per_sec_per_core"`
	Cores            int     `json:"cores"`
	TxFrames         uint64  `json:"tx_frames"`
	TxDatagrams      uint64  `json:"tx_datagrams"`
	FramesPerDgram   float64 `json:"frames_per_datagram"`
	TxBytes          uint64  `json:"tx_bytes_on_wire"`
	RxBytes          uint64  `json:"rx_bytes_off_wire"`
	BytesPerDelivery float64 `json:"wire_bytes_per_delivery"`
	TxDropped        uint64  `json:"tx_dropped"`
	InboxDrops       uint64  `json:"inbox_drops"`
	PeakRSSMax       uint64  `json:"peak_rss_bytes_max"`
	PeakRSSTotal     uint64  `json:"peak_rss_bytes_total"`
	GoroutinesJoined int64   `json:"goroutines_total_at_join"`
	GoroutinesFinal  int64   `json:"goroutines_total_at_drain"`
	GoroutineGrowth  int64   `json:"goroutines_steady_growth"`
	GoroutinesMax    int64   `json:"goroutines_max_per_node_at_drain"`
	ProfileWants     uint64  `json:"profile_wants_steady_growth"`

	DeliveryP50Sec float64  `json:"delivery_latency_p50_sec,omitempty"`
	DeliveryP99Sec float64  `json:"delivery_latency_p99_sec,omitempty"`
	AlertsFired    []string `json:"alerts_fired,omitempty"`

	OfflineNodes       int     `json:"offline_nodes,omitempty"`
	CatchUpSec         float64 `json:"catchup_sec,omitempty"`
	CatchUpRequests    uint64  `json:"catchup_requests,omitempty"`
	CatchUpServed      uint64  `json:"catchup_served_events,omitempty"`
	CatchUpServedBytes uint64  `json:"catchup_served_bytes,omitempty"`
	CatchUpDeliveries  uint64  `json:"catchup_deliveries,omitempty"`
	StoreAppends       uint64  `json:"store_appends,omitempty"`
	StoreRecords       uint64  `json:"store_records,omitempty"`
}

// runCluster runs the six phases in order. plan and report are pure; launch,
// join, load and drain drive the processes and hand the next phase a typed
// result.
func runCluster(cfg clusterConfig, out io.Writer) (*summary, error) {
	pl, err := buildPlan(cfg)
	if err != nil {
		return nil, err
	}
	c, err := launch(cfg, pl, out)
	if err != nil {
		return nil, err
	}
	defer c.close()
	j, err := c.join()
	if err != nil {
		return nil, err
	}
	if err := c.load(); err != nil {
		return nil, err
	}
	d, err := c.drain(j)
	if err != nil {
		return nil, err
	}
	s := report(cfg, pl, j, d, c.mon)
	printReport(out, s, pl, d, c.mon)
	if cfg.benchOut != "" {
		if err := writeBench(cfg, s); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "benchmark summary written to %s\n", cfg.benchOut)
	}
	return s, nil
}

// plan is the workload assignment: who subscribes to what, who publishes
// what at which rate, who is held offline.
type plan struct {
	subsOf  [][]int   // topic -> subscriber node indices (publisher included)
	pubOf   []int     // topic -> publisher node index
	rates   []float64 // topic -> events/sec
	subArgs []string  // node -> -subscribe value
	pubArgs []string  // node -> -publish value ("" for non-publishers)
	offline []int     // nodes started only after the publish window drained
	stores  bool      // every node keeps a durable event store
}

// buildPlan derives the cluster workload from the generator: random
// subscriptions, power-law topic rates, and one dedicated publisher per
// topic (a subscriber when possible) so per-topic publish counts can be
// read off that node's published counter exactly.
func buildPlan(cfg clusterConfig) (*plan, error) {
	if cfg.topics > cfg.nodes {
		return nil, fmt.Errorf("%d topics need at least as many nodes (one distinct publisher each), have %d", cfg.topics, cfg.nodes)
	}
	subs, err := workload.Generate(workload.SyntheticConfig{
		Nodes: cfg.nodes, Topics: cfg.topics, SubsPerNode: cfg.subsPerNode,
		Pattern: workload.Random, Seed: cfg.seed,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	norm := workload.TopicRates(rng, cfg.topics, cfg.alpha)
	p := &plan{
		subsOf:  subs.SubscribersOf(),
		pubOf:   make([]int, cfg.topics),
		rates:   make([]float64, cfg.topics),
		subArgs: make([]string, cfg.nodes),
		pubArgs: make([]string, cfg.nodes),
	}
	isPub := make([]bool, cfg.nodes)
	for t := 0; t < cfg.topics; t++ {
		p.rates[t] = cfg.totalRate * norm[t]
		if p.rates[t] < 0.05 { // keep every topic's schedule alive
			p.rates[t] = 0.05
		}
		pick := -1
		for _, n := range p.subsOf[t] {
			if !isPub[n] {
				pick = n
				break
			}
		}
		if pick == -1 { // every subscriber already publishes another topic
			for n := 0; n < cfg.nodes; n++ {
				if !isPub[n] {
					pick = n
					// -publish auto-subscribes, so the stand-in counts as
					// a subscriber in the expected-delivery arithmetic.
					p.subsOf[t] = append(p.subsOf[t], n)
					break
				}
			}
		}
		if pick == -1 {
			return nil, fmt.Errorf("no free publisher for topic %d", t)
		}
		isPub[pick] = true
		p.pubOf[t] = pick
		p.pubArgs[pick] = fmt.Sprintf("t%03d=%s", t, strconv.FormatFloat(p.rates[t], 'f', 4, 64))
	}
	for n := 0; n < cfg.nodes; n++ {
		var names []string
		for _, t := range subs.Subs[n] {
			names = append(names, fmt.Sprintf("t%03d", t))
		}
		p.subArgs[n] = strings.Join(names, ",")
	}
	if p.offline, err = pickOffline(cfg, p); err != nil {
		return nil, err
	}
	// The offline scenario persists every node's events so late joiners have
	// stores to walk.
	p.stores = len(p.offline) > 0 || cfg.storeDir != ""
	return p, nil
}

// pickOffline selects the subscriber nodes held offline for the publish
// window: non-publishers with at least one subscription, drawn
// deterministically from the seed. Publishers must run during the window —
// they are the event source the others catch up on.
func pickOffline(cfg clusterConfig, pl *plan) ([]int, error) {
	if cfg.offlineFrac <= 0 {
		return nil, nil
	}
	if cfg.offlineFrac >= 1 {
		return nil, fmt.Errorf("-offline-frac %v must be in (0, 1)", cfg.offlineFrac)
	}
	isPub := make([]bool, cfg.nodes)
	for _, n := range pl.pubOf {
		isPub[n] = true
	}
	var candidates []int
	for n := 0; n < cfg.nodes; n++ {
		if !isPub[n] && pl.subArgs[n] != "" {
			candidates = append(candidates, n)
		}
	}
	want := int(float64(cfg.nodes)*cfg.offlineFrac + 0.5)
	if want < 1 {
		want = 1
	}
	if want > len(candidates) {
		return nil, fmt.Errorf("-offline-frac %v asks for %d offline subscribers, only %d non-publisher subscribers exist",
			cfg.offlineFrac, want, len(candidates))
	}
	rng := rand.New(rand.NewSource(cfg.seed + 2))
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	offline := candidates[:want]
	sort.Ints(offline)
	return offline, nil
}

// cluster is a launched run: the bootstrap, the node processes, and the
// monitor every scrape feeds. close stops all of it.
type cluster struct {
	cfg clusterConfig
	pl  *plan
	out io.Writer

	bin, storeRoot string
	cleanup        []func() // temp dirs and the dashboard server, undone by close
	started        time.Time
	bs             *harness.Proc
	bsAddr         string
	procs          []*harness.Proc // by node index; nil until started
	metricsAddrs   []string        // by node index; "" until the node reports it
	mon            *monitor
}

// launch is phase two: it builds vitis-node if no binary was given, starts
// the bootstrap, the monitor and every node that is not held offline.
func launch(cfg clusterConfig, pl *plan, out io.Writer) (c *cluster, err error) {
	c = &cluster{
		cfg: cfg, pl: pl, out: out,
		bin: cfg.nodeBin, storeRoot: cfg.storeDir,
		procs:        make([]*harness.Proc, cfg.nodes),
		metricsAddrs: make([]string, cfg.nodes),
	}
	defer func() {
		if err != nil {
			c.close()
			c = nil
		}
	}()
	tempDir := func(pattern string) (string, error) {
		dir, err := os.MkdirTemp("", pattern)
		if err == nil {
			c.cleanup = append(c.cleanup, func() { os.RemoveAll(dir) })
		}
		return dir, err
	}
	if pl.stores && c.storeRoot == "" {
		if c.storeRoot, err = tempDir("vitis-cluster-store-"); err != nil {
			return c, err
		}
	}
	if c.bin == "" {
		dir, err := tempDir("vitis-cluster-bin-")
		if err != nil {
			return c, err
		}
		if c.bin, err = harness.Build(dir); err != nil {
			return c, err
		}
	}

	fmt.Fprintf(out, "cluster: %d nodes, %d topics, %d subs/node, %.1f ev/s for %s (seed %d)\n",
		cfg.nodes, cfg.topics, cfg.subsPerNode, cfg.totalRate, cfg.publishFor, cfg.seed)
	c.started = time.Now()
	if c.bs, err = harness.Start(c.bin, "-role", "bootstrap", "-listen", "127.0.0.1:0",
		"-seed", "1", "-period-ms", strconv.FormatInt(cfg.periodMs, 10)); err != nil {
		return c, err
	}
	line, err := c.bs.Expect("listening on", 15*time.Second)
	if err != nil {
		return c, fmt.Errorf("bootstrap: %w", err)
	}
	c.bsAddr = harness.LastField(line)
	if cfg.verbose {
		fmt.Fprintf(out, "bootstrap on %s\n", c.bsAddr)
	}

	// The monitor streams every scrape from here on into its collector,
	// evaluates the alert rules, and drives the -dash / -dash-addr views.
	c.mon = newMonitor(cfg.nodes, scrapeEvery.Milliseconds(), cfg.dash, out)
	if cfg.dashAddr != "" {
		srv, addr, err := c.mon.serveDash(cfg.dashAddr)
		if err != nil {
			return c, err
		}
		c.cleanup = append(c.cleanup, func() { srv.Close() })
		fmt.Fprintf(out, "dashboard on http://%s (JSON: /api/series)\n", addr)
	}

	offline := make(map[int]bool, len(pl.offline))
	for _, i := range pl.offline {
		offline[i] = true
	}
	for i := 0; i < cfg.nodes; i++ {
		if !offline[i] {
			if err := c.start(i); err != nil {
				return c, err
			}
		}
	}
	return c, nil
}

// start launches node i with its workload arguments (and a private store
// directory when the plan asks for stores).
func (c *cluster) start(i int) error {
	args := []string{
		"-listen", "127.0.0.1:0", "-bootstrap", c.bsAddr, "-quiet",
		"-seed", strconv.Itoa(i + 2),
		"-period-ms", strconv.FormatInt(c.cfg.periodMs, 10),
		"-metrics-addr", "127.0.0.1:0",
		"-publish-for", c.cfg.publishFor.String(),
		"-publish-delay", c.cfg.settle.String(),
	}
	if c.pl.stores {
		args = append(args, "-store", fmt.Sprintf("%s/node-%03d", c.storeRoot, i))
	}
	if c.pl.subArgs[i] != "" {
		args = append(args, "-subscribe", c.pl.subArgs[i])
	}
	if c.pl.pubArgs[i] != "" {
		args = append(args, "-publish", c.pl.pubArgs[i])
	}
	p, err := harness.Start(c.bin, args...)
	if err != nil {
		return err
	}
	c.procs[i] = p
	time.Sleep(2 * time.Millisecond) // soften the join stampede
	return nil
}

// await waits for the given nodes to report their metrics address and
// overlay membership, all within one joinTimeout.
func (c *cluster) await(idxs []int) error {
	deadline := time.Now().Add(joinTimeout)
	for _, i := range idxs {
		line, err := c.procs[i].Expect("metrics listening on", time.Until(deadline))
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		c.metricsAddrs[i] = harness.LastField(line)
	}
	for _, i := range idxs {
		if _, err := c.procs[i].Expect("joined with", time.Until(deadline)); err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		if c.cfg.verbose {
			fmt.Fprintf(c.out, "node %d joined\n", i)
		}
	}
	return nil
}

// close stops every process, the dashboard server and the temp dirs.
func (c *cluster) close() {
	var wg sync.WaitGroup
	for _, p := range c.procs {
		if p != nil {
			wg.Add(1)
			go func() { defer wg.Done(); p.Stop() }()
		}
	}
	wg.Wait()
	if c.bs != nil {
		c.bs.Stop()
	}
	for _, f := range c.cleanup {
		f()
	}
}

// scrape reads every started node's /metrics through a bounded worker pool,
// each fetch under its own timeout, and feeds the result to the monitor.
// Results land at the node's index, so the order is deterministic whatever
// the completion order; nodes not started yet contribute an empty map,
// keeping indices aligned with the plan.
func (c *cluster) scrape() ([]map[string]float64, error) {
	ms := make([]map[string]float64, len(c.procs))
	errs := make([]error, len(c.procs))
	sem := make(chan struct{}, scrapeWorkers)
	var wg sync.WaitGroup
	for i, addr := range c.metricsAddrs {
		if addr == "" {
			ms[i] = map[string]float64{}
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ms[i], errs[i] = harness.Scrape(addr)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("node %d: %w; log tail:\n%s", i, err, c.procs[i].Log())
		}
	}
	c.mon.observe(time.Now().UnixMilli(), ms)
	return ms, nil
}

// joined is the join phase's result.
type joined struct {
	sec    float64              // launch to the last online node joined
	at     time.Time            // when it joined
	scrape []map[string]float64 // the first scrape after join
}

// join is phase three: every online node reports in, then the fleet's
// first scrape.
func (c *cluster) join() (joined, error) {
	var online []int
	for i, p := range c.procs {
		if p != nil {
			online = append(online, i)
		}
	}
	if err := c.await(online); err != nil {
		return joined{}, err
	}
	j := joined{sec: time.Since(c.started).Seconds(), at: time.Now()}
	if n := len(c.pl.offline); n > 0 {
		fmt.Fprintf(c.out, "all %d online nodes joined in %.1fs (%d subscribers held offline)\n", len(online), j.sec, n)
	} else {
		fmt.Fprintf(c.out, "all %d nodes joined in %.1fs\n", len(online), j.sec)
	}
	var err error
	j.scrape, err = c.scrape()
	return j, err
}

// load is phase four: every node's settle delay and publish window run
// out while the fleet is scraped on the monitor cadence.
func (c *cluster) load() error {
	end := time.Now().Add(c.cfg.settle + c.cfg.publishFor)
	for d := time.Until(end); d > 0; d = time.Until(end) {
		time.Sleep(min(d, scrapeEvery))
		if _, err := c.scrape(); err != nil {
			return err
		}
	}
	return nil
}

// drained is the drain phase's result.
type drained struct {
	final      []map[string]float64 // every node, once all deliveries are in
	steady     []map[string]float64 // stableFor later: the leak probe
	loadSec    float64              // join to the online cluster drained
	catchUpSec float64              // offline subscribers' start to their walks retired
}

// drain is phase five. The online cluster's published and delivered counters
// go quiet first. Then the offline subscribers start: nothing reaches them
// through live dissemination any more, so every delivery they make comes off
// a neighbor's store, and the phase waits for their catch-up walks to
// retire and their deliveries to go quiet. Last comes the leak probe: with
// only background gossip running, the goroutine population must be flat.
func (c *cluster) drain(j joined) (drained, error) {
	var d drained
	var pub, del float64
	err := harness.Settle(drainTimeout, stableFor, scrapeEvery, func() (float64, bool, error) {
		ms, err := c.scrape()
		if err != nil {
			return 0, false, err
		}
		d.final = ms
		pub, del = sumOf(ms, "vitis_core_published_total"), sumOf(ms, "vitis_core_deliveries_total")
		return pub + del, pub > 0, nil
	})
	if err != nil {
		return d, fmt.Errorf("draining (published=%v delivered=%v): %w", pub, del, err)
	}
	d.loadSec = time.Since(j.at).Seconds()

	if late := c.pl.offline; len(late) > 0 {
		fmt.Fprintf(c.out, "starting %d offline subscribers for catch-up\n", len(late))
		lateStart := time.Now()
		for _, i := range late {
			if err := c.start(i); err != nil {
				return d, err
			}
		}
		if err := c.await(late); err != nil {
			return d, err
		}
		var pending float64
		err := harness.Settle(drainTimeout, stableFor, scrapeEvery, func() (float64, bool, error) {
			ms, err := c.scrape()
			if err != nil {
				return 0, false, err
			}
			del, pending = 0, 0
			for _, i := range late {
				del += ms[i]["vitis_core_deliveries_total"]
				pending += ms[i]["vitis_store_catchup_topics_pending"]
			}
			return del, pending == 0, nil
		})
		if err != nil {
			return d, fmt.Errorf("catch-up (late deliveries=%v pending walks=%v): %w", del, pending, err)
		}
		d.catchUpSec = time.Since(lateStart).Seconds()
		if d.final, err = c.scrape(); err != nil {
			return d, err
		}
	}

	time.Sleep(stableFor)
	d.steady, err = c.scrape()
	return d, err
}

func sumOf(ms []map[string]float64, name string) float64 {
	var s float64
	for _, m := range ms {
		s += m[name]
	}
	return s
}

// report is phase six: the run summary, computed from the typed phase
// results and the monitor alone.
func report(cfg clusterConfig, pl *plan, j joined, d drained, mon *monitor) *summary {
	final := d.final
	// Exact delivery accounting: each topic has one dedicated publisher,
	// so its published counter is the per-topic event count.
	var expected, published uint64
	for t := range pl.pubOf {
		n := uint64(final[pl.pubOf[t]]["vitis_core_published_total"])
		published += n
		expected += n * uint64(len(pl.subsOf[t]))
	}
	delivered := uint64(sumOf(final, "vitis_core_deliveries_total"))

	s := &summary{
		Nodes: cfg.nodes, Topics: cfg.topics, SubsPerNode: cfg.subsPerNode,
		Alpha: cfg.alpha, TotalRate: cfg.totalRate,
		PublishWindowSec: cfg.publishFor.Seconds(), PeriodMs: cfg.periodMs,
		JoinSec: j.sec, DurationSec: d.loadSec,
		Published: published, Expected: expected, Delivered: delivered,
		Cores:            runtime.NumCPU(),
		TxFrames:         uint64(sumOf(final, "vitis_transport_tx_frames_total")),
		TxDatagrams:      uint64(sumOf(final, "vitis_transport_tx_datagrams_total")),
		TxBytes:          uint64(sumOf(final, "vitis_transport_tx_bytes_total")),
		RxBytes:          uint64(sumOf(final, "vitis_transport_rx_bytes_total")),
		TxDropped:        uint64(sumOf(final, "vitis_transport_tx_dropped_total")),
		InboxDrops:       uint64(sumOf(final, "vitis_host_inbox_drops_total")),
		PeakRSSTotal:     uint64(sumOf(final, "vitis_proc_max_rss_bytes")),
		GoroutinesJoined: int64(sumOf(j.scrape, "vitis_go_goroutines")),
		GoroutinesFinal:  int64(sumOf(final, "vitis_go_goroutines")),
	}
	for _, m := range final {
		s.PeakRSSMax = max(s.PeakRSSMax, uint64(m["vitis_proc_max_rss_bytes"]))
		s.GoroutinesMax = max(s.GoroutinesMax, int64(m["vitis_go_goroutines"]))
	}
	if expected > 0 {
		s.DeliveryRatio = float64(delivered) / float64(expected)
	}
	if d.loadSec > 0 {
		s.MsgsPerSec = float64(delivered) / d.loadSec
		s.MsgsPerSecCore = s.MsgsPerSec / float64(s.Cores)
	}
	if s.TxDatagrams > 0 {
		s.FramesPerDgram = float64(s.TxFrames) / float64(s.TxDatagrams)
	}
	if delivered > 0 {
		s.BytesPerDelivery = float64(s.TxBytes) / float64(delivered)
	}
	s.GoroutineGrowth = int64(sumOf(d.steady, "vitis_go_goroutines")) - s.GoroutinesFinal
	s.ProfileWants = uint64(sumOf(d.steady, "vitis_core_profile_wants_total") - sumOf(final, "vitis_core_profile_wants_total"))
	s.AlertsFired = mon.firedEver()
	if p50 := mon.col.Quantile(deliveryLatencyMetric, 0.5); !math.IsNaN(p50) {
		s.DeliveryP50Sec = p50
	}
	if p99 := mon.col.Quantile(deliveryLatencyMetric, 0.99); !math.IsNaN(p99) {
		s.DeliveryP99Sec = p99
	}
	if pl.stores {
		s.OfflineNodes = len(pl.offline)
		s.CatchUpSec = d.catchUpSec
		s.CatchUpRequests = uint64(sumOf(final, "vitis_store_catchup_requests_total"))
		s.CatchUpServed = uint64(sumOf(final, "vitis_store_catchup_served_events_total"))
		s.CatchUpServedBytes = uint64(sumOf(final, "vitis_store_catchup_served_bytes_total"))
		s.CatchUpDeliveries = uint64(sumOf(final, "vitis_store_catchup_deliveries_total"))
		s.StoreAppends = uint64(sumOf(final, "vitis_store_appends_total"))
		s.StoreRecords = uint64(sumOf(final, "vitis_store_records"))
	}
	return s
}

// printReport writes the aggregated table and the summary lines.
func printReport(out io.Writer, s *summary, pl *plan, d drained, mon *monitor) {
	rows := tableRows
	if pl.stores {
		rows = append(append([]string{}, tableRows...), storeRows...)
	}
	printTable(out, d.final, rows)
	fmt.Fprintf(out, "\npublished=%d expected=%d delivered=%d ratio=%.4f\n",
		s.Published, s.Expected, s.Delivered, s.DeliveryRatio)
	if pl.stores {
		fmt.Fprintf(out, "catch-up: %d offline subscribers backfilled in %.1fs: %d deliveries via catch-up, %d events / %d bytes served from stores (%d records across the cluster)\n",
			s.OfflineNodes, s.CatchUpSec, s.CatchUpDeliveries, s.CatchUpServed, s.CatchUpServedBytes, s.StoreRecords)
	}
	fmt.Fprintf(out, "delivery latency: %s\n", mon.latencyLine(deliveryLatencyMetric))
	_, scrapes, _, _ := mon.snapshot()
	if len(s.AlertsFired) > 0 {
		fmt.Fprintf(out, "alerts fired during the run (%d scrapes): %s\n", scrapes, strings.Join(s.AlertsFired, ", "))
	} else {
		fmt.Fprintf(out, "alerts: none fired across %d scrapes\n", scrapes)
	}
	fmt.Fprintf(out, "load ran %.1fs: %.1f delivered msgs/sec (%.1f per core, %d cores)\n",
		s.DurationSec, s.MsgsPerSec, s.MsgsPerSecCore, s.Cores)
	fmt.Fprintf(out, "wire: %d frames in %d datagrams (%.2f frames/datagram), %d tx bytes, %d rx bytes, %.0f wire bytes/delivery\n",
		s.TxFrames, s.TxDatagrams, s.FramesPerDgram, s.TxBytes, s.RxBytes, s.BytesPerDelivery)
	fmt.Fprintf(out, "memory: peak RSS max %.1f MiB per node, %.1f MiB total; goroutines %d at join -> %d drained (at most %d per node), steady growth %d over %s (budget %d)\n",
		float64(s.PeakRSSMax)/(1<<20), float64(s.PeakRSSTotal)/(1<<20),
		s.GoroutinesJoined, s.GoroutinesFinal, s.GoroutinesMax, s.GoroutineGrowth, stableFor, s.Nodes)
	fmt.Fprintf(out, "quiet heartbeats: %d profile Wants over the same %s\n", s.ProfileWants, stableFor)
}

// tableRows picks the metrics worth a column in the aggregated table.
var tableRows = []string{
	"vitis_core_published_total",
	"vitis_core_deliveries_total",
	"vitis_core_duplicate_notifications_total",
	"vitis_core_forwards_total",
	"vitis_core_routing_table_size",
	"vitis_transport_tx_frames_total",
	"vitis_transport_tx_datagrams_total",
	"vitis_transport_tx_bytes_total",
	"vitis_transport_rx_bytes_total",
	"vitis_transport_tx_dropped_total",
	"vitis_transport_known_peers",
	"vitis_host_inbox_drops_total",
	"vitis_go_goroutines",
	"vitis_proc_max_rss_bytes",
}

// storeRows extends the table when the cluster runs with durable stores
// (the -offline-frac scenario).
var storeRows = []string{
	"vitis_store_appends_total",
	"vitis_store_appended_bytes_total",
	"vitis_store_records",
	"vitis_store_bytes",
	"vitis_store_segments",
	"vitis_store_catchup_requests_total",
	"vitis_store_catchup_served_events_total",
	"vitis_store_catchup_served_bytes_total",
	"vitis_store_catchup_deliveries_total",
	"vitis_store_catchup_abandoned_total",
}

// printTable renders sum/mean/min/max over all nodes for the selected
// metrics — the "one aggregated table" view of the whole cluster.
func printTable(out io.Writer, ms []map[string]float64, rows []string) {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "\nmetric\tsum\tmean\tmin\tmax\n")
	for _, name := range rows {
		var sum float64
		min, max := ms[0][name], ms[0][name]
		for _, m := range ms {
			v := m[name]
			sum += v
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		fmt.Fprintf(w, "%s\t%.0f\t%.1f\t%.0f\t%.0f\n", name, sum, sum/float64(len(ms)), min, max)
	}
	w.Flush()
}

// benchFile is the -bench-out JSON document.
type benchFile struct {
	Command     string   `json:"command"`
	Environment string   `json:"environment"`
	Results     *summary `json:"results"`
	Notes       []string `json:"notes"`
}

func writeBench(cfg clusterConfig, s *summary) error {
	cmd := fmt.Sprintf("vitis-cluster -nodes %d -topics %d -subs-per-node %d -alpha %g -rate %g -publish-for %s -settle %s -period-ms %d -seed %d",
		cfg.nodes, cfg.topics, cfg.subsPerNode, cfg.alpha, cfg.totalRate, cfg.publishFor, cfg.settle, cfg.periodMs, cfg.seed)
	notes := []string{
		"expected_deliveries = sum over topics of published(topic) x subscribers(topic); each topic has one dedicated publisher, itself a subscriber",
		fmt.Sprintf("goroutines_steady_growth compares vitis_go_goroutines totals across two post-drain scrapes %s apart; a goroutine leaked per peer or per message grows here", stableFor),
		"profile_wants_steady_growth is the rise of vitis_core_profile_wants_total across the same two scrapes: one Want per new routing-table edge or lost full profile, far fewer than one per heartbeat",
	}
	if cfg.offlineFrac > 0 {
		cmd += fmt.Sprintf(" -offline-frac %g", cfg.offlineFrac)
		notes = append(notes,
			"offline_nodes subscribers were down for the whole publish window and rejoined afterwards; their deliveries all came through store-backed catch-up, so the delivery ratio measures completeness over the full subscriber set")
	}
	doc := benchFile{
		Command:     cmd,
		Environment: fmt.Sprintf("%d CPU, %s/%s, %s", runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, runtime.Version()),
		Results:     s,
		Notes:       notes,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.benchOut, append(b, '\n'), 0o644)
}
