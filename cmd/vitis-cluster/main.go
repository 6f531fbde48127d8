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
// when goroutine counts keep growing across two post-drain scrapes (a
// leak detector: a node's goroutine population does not depend on how many
// peers it knows, so steady-state gossip must not mint new ones).
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
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"text/tabwriter"
	"time"

	"vitis/internal/telemetry"
	"vitis/internal/workload"
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
	flag.DurationVar(&cfg.joinTimeout, "join-timeout", 3*time.Minute, "deadline for every node to join the overlay")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 3*time.Minute, "deadline for delivery counters to go quiet after the window")
	flag.DurationVar(&cfg.stableFor, "stable-for", 3*time.Second, "counters must be unchanged this long to count as drained")
	flag.Int64Var(&cfg.periodMs, "period-ms", 500, "gossip and heartbeat period handed to every node")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload and identity seed")
	flag.StringVar(&cfg.nodeBin, "node-bin", "", "path to the vitis-node binary (default: build it with 'go build')")
	flag.StringVar(&cfg.benchOut, "bench-out", "", "write a benchmark JSON summary to this file")
	flag.Float64Var(&cfg.minDelivery, "min-delivery", 0, "exit non-zero when delivery ratio falls below this")
	flag.IntVar(&cfg.maxGoroutineGrowth, "max-goroutine-growth", 0,
		"exit non-zero when total goroutines grew more than this across two post-drain scrapes (0 = nodes count)")
	flag.Float64Var(&cfg.offlineFrac, "offline-frac", 0,
		"fraction of subscriber nodes held offline during the publish window, rejoining afterwards to catch up from stores (0 = off)")
	flag.StringVar(&cfg.storeDir, "store-dir", "",
		"root directory for per-node event stores (default: a temp dir, removed on exit; implies stores only with -offline-frac)")
	flag.DurationVar(&cfg.scrapeInterval, "scrape-interval", time.Second, "cadence of the monitoring scrape loop")
	flag.DurationVar(&cfg.scrapeTimeout, "scrape-timeout", 5*time.Second, "per-node /metrics fetch timeout")
	flag.IntVar(&cfg.scrapeWorkers, "scrape-workers", 16, "concurrent /metrics fetches per scrape")
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
	if sum.GoroutineGrowth > sum.goroutineBudget {
		fmt.Fprintf(os.Stderr, "vitis-cluster: goroutines grew by %d at steady state (budget %d) — leak?\n",
			sum.GoroutineGrowth, sum.goroutineBudget)
		os.Exit(1)
	}
}

type clusterConfig struct {
	nodes, topics, subsPerNode int
	alpha, totalRate           float64
	minDelivery                float64
	publishFor, settle         time.Duration
	joinTimeout, drainTimeout  time.Duration
	stableFor                  time.Duration
	periodMs, seed             int64
	nodeBin, benchOut          string
	maxGoroutineGrowth         int
	offlineFrac                float64
	storeDir                   string
	scrapeInterval             time.Duration
	scrapeTimeout              time.Duration
	scrapeWorkers              int
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

	goroutineBudget int64
}

// nodeProc is one child process with its stdout scanned line by line.
type nodeProc struct {
	idx int
	cmd *exec.Cmd

	mu    sync.Mutex
	log   []string
	lines chan string

	metricsAddr  string
	publishTopic int // topic index this node publishes, -1 for none
}

const logKeep = 200 // stdout lines retained per node for error reports

func startProc(bin string, args ...string) (*nodeProc, error) {
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &nodeProc{cmd: cmd, lines: make(chan string, 4096), publishTopic: -1}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.log = append(p.log, line)
			if len(p.log) > logKeep {
				p.log = p.log[len(p.log)-logKeep:]
			}
			p.mu.Unlock()
			select {
			case p.lines <- line:
			default:
			}
		}
		close(p.lines)
	}()
	return p, nil
}

// expect waits for a stdout line containing substr.
func (p *nodeProc) expect(substr string, deadline time.Time) (string, error) {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				return "", fmt.Errorf("node %d exited before printing %q; log tail:\n%s", p.idx, substr, p.dump())
			}
			if strings.Contains(line, substr) {
				return line, nil
			}
		case <-timer.C:
			return "", fmt.Errorf("node %d: timed out waiting for %q; log tail:\n%s", p.idx, substr, p.dump())
		}
	}
}

func (p *nodeProc) dump() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.log, "\n")
}

// terminate sends SIGTERM and waits briefly, escalating to SIGKILL.
func (p *nodeProc) terminate() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
}

// scrape GETs one node's /metrics and parses it; a malformed exposition is
// an error, not a silently missing sample.
func scrape(client *http.Client, addr string) (map[string]float64, error) {
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics on %s returned %d", addr, resp.StatusCode)
	}
	m, err := telemetry.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("/metrics on %s: %w", addr, err)
	}
	return m, nil
}

// plan is the workload assignment: who subscribes to what, who publishes
// what at which rate.
type plan struct {
	subsOf  [][]int   // topic -> subscriber node indices (publisher included)
	pubOf   []int     // topic -> publisher node index
	rates   []float64 // topic -> events/sec
	subArgs []string  // node -> -subscribe value
	pubArgs []string  // node -> -publish value ("" for non-publishers)
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

func runCluster(cfg clusterConfig, out io.Writer) (*summary, error) {
	// Tests construct cfg directly, so zero values take the flag defaults.
	if cfg.scrapeInterval <= 0 {
		cfg.scrapeInterval = time.Second
	}
	if cfg.scrapeTimeout <= 0 {
		cfg.scrapeTimeout = 5 * time.Second
	}
	if cfg.scrapeWorkers <= 0 {
		cfg.scrapeWorkers = 16
	}
	pl, err := buildPlan(cfg)
	if err != nil {
		return nil, err
	}
	offline, err := pickOffline(cfg, pl)
	if err != nil {
		return nil, err
	}
	// The offline scenario persists every node's events so late joiners have
	// stores to walk.
	storeRoot := cfg.storeDir
	if len(offline) > 0 && storeRoot == "" {
		storeRoot, err = os.MkdirTemp("", "vitis-cluster-store-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(storeRoot)
	}

	bin := cfg.nodeBin
	if bin == "" {
		bin = os.TempDir() + "/vitis-cluster-node"
		if b, err := exec.Command("go", "build", "-o", bin, "vitis/cmd/vitis-node").CombinedOutput(); err != nil {
			return nil, fmt.Errorf("building vitis-node: %v\n%s", err, b)
		}
	}

	fmt.Fprintf(out, "cluster: %d nodes, %d topics, %d subs/node, %.1f ev/s for %s (seed %d)\n",
		cfg.nodes, cfg.topics, cfg.subsPerNode, cfg.totalRate, cfg.publishFor, cfg.seed)

	start := time.Now()
	bs, err := startProc(bin, "-role", "bootstrap", "-listen", "127.0.0.1:0",
		"-seed", "1", "-period-ms", strconv.FormatInt(cfg.periodMs, 10))
	if err != nil {
		return nil, err
	}
	defer bs.terminate()
	line, err := bs.expect("listening on", time.Now().Add(15*time.Second))
	if err != nil {
		return nil, err
	}
	bsAddr := line[strings.LastIndex(line, " ")+1:]
	if cfg.verbose {
		fmt.Fprintf(out, "bootstrap on %s\n", bsAddr)
	}

	procs := make([]*nodeProc, cfg.nodes)
	defer func() {
		var wg sync.WaitGroup
		for _, p := range procs {
			if p == nil {
				continue
			}
			wg.Add(1)
			go func(p *nodeProc) { defer wg.Done(); p.terminate() }(p)
		}
		wg.Wait()
	}()
	offlineSet := make(map[int]bool, len(offline))
	for _, i := range offline {
		offlineSet[i] = true
	}
	// startNode launches node i with its workload arguments (and a private
	// store directory when the offline scenario is active).
	startNode := func(i int) error {
		args := []string{
			"-listen", "127.0.0.1:0", "-bootstrap", bsAddr, "-quiet",
			"-seed", strconv.Itoa(i + 2),
			"-period-ms", strconv.FormatInt(cfg.periodMs, 10),
			"-metrics-addr", "127.0.0.1:0",
			"-publish-for", cfg.publishFor.String(),
			"-publish-delay", cfg.settle.String(),
		}
		if storeRoot != "" {
			args = append(args, "-store", fmt.Sprintf("%s/node-%03d", storeRoot, i))
		}
		if pl.subArgs[i] != "" {
			args = append(args, "-subscribe", pl.subArgs[i])
		}
		if pl.pubArgs[i] != "" {
			args = append(args, "-publish", pl.pubArgs[i])
		}
		p, err := startProc(bin, args...)
		if err != nil {
			return err
		}
		p.idx = i
		procs[i] = p
		time.Sleep(2 * time.Millisecond) // soften the join stampede
		return nil
	}
	// awaitJoin waits for the given nodes to report their metrics address
	// and overlay membership.
	awaitJoin := func(idxs []int, deadline time.Time) error {
		for _, i := range idxs {
			p := procs[i]
			line, err := p.expect("metrics listening on", deadline)
			if err != nil {
				return err
			}
			p.metricsAddr = line[strings.LastIndex(line, " ")+1:]
		}
		for _, i := range idxs {
			if _, err := procs[i].expect("joined with", deadline); err != nil {
				return err
			}
			if cfg.verbose {
				fmt.Fprintf(out, "node %d joined\n", i)
			}
		}
		return nil
	}

	var onlineIdx []int
	for i := 0; i < cfg.nodes; i++ {
		if offlineSet[i] {
			continue
		}
		if err := startNode(i); err != nil {
			return nil, err
		}
		onlineIdx = append(onlineIdx, i)
	}
	if err := awaitJoin(onlineIdx, time.Now().Add(cfg.joinTimeout)); err != nil {
		return nil, err
	}
	joinSec := time.Since(start).Seconds()
	joined := time.Now()
	if len(offline) > 0 {
		fmt.Fprintf(out, "all %d online nodes joined in %.1fs (%d subscribers held offline)\n",
			len(onlineIdx), joinSec, len(offline))
	} else {
		fmt.Fprintf(out, "all %d nodes joined in %.1fs\n", cfg.nodes, joinSec)
	}

	// scrapeAll reads every running node's /metrics through a bounded worker
	// pool, each fetch under its own timeout. Results land at the node's
	// index, so the output order is deterministic regardless of completion
	// order; nodes not started yet contribute an empty sample map, keeping
	// indices aligned with the plan.
	client := &http.Client{Timeout: cfg.scrapeTimeout}
	scrapeAll := func() ([]map[string]float64, error) {
		ms := make([]map[string]float64, len(procs))
		errs := make([]error, len(procs))
		sem := make(chan struct{}, cfg.scrapeWorkers)
		var wg sync.WaitGroup
		for i, p := range procs {
			if p == nil || p.metricsAddr == "" {
				ms[i] = map[string]float64{}
				continue
			}
			wg.Add(1)
			go func(i int, p *nodeProc) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				ms[i], errs[i] = scrape(client, p.metricsAddr)
			}(i, p)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("node %d: %w; log tail:\n%s", i, err, procs[i].dump())
			}
		}
		return ms, nil
	}
	sumOf := func(ms []map[string]float64, name string) float64 {
		var s float64
		for _, m := range ms {
			s += m[name]
		}
		return s
	}

	// The monitor streams every scrape from here on into its collector,
	// evaluates the alert rules, and drives the -dash / -dash-addr views.
	mon := newMonitor(cfg.nodes, cfg.scrapeInterval.Milliseconds(), cfg.dash, out)
	if cfg.dashAddr != "" {
		dashSrv, dashListen, err := mon.serveDash(cfg.dashAddr)
		if err != nil {
			return nil, err
		}
		defer dashSrv.Close()
		fmt.Fprintf(out, "dashboard on http://%s (JSON: /api/series)\n", dashListen)
	}
	monScrape := func() ([]map[string]float64, error) {
		ms, err := scrapeAll()
		if err != nil {
			return nil, err
		}
		mon.observe(time.Now().UnixMilli(), ms)
		return ms, nil
	}

	joinedScrape, err := monScrape()
	if err != nil {
		return nil, err
	}

	// Let every publish window run out (settle delay plus the window
	// itself), scraping the fleet on the monitor cadence the whole time,
	// then wait for the delivery counters to go quiet: all in-flight events
	// drained.
	windowEnd := time.Now().Add(cfg.settle + cfg.publishFor)
	for {
		d := time.Until(windowEnd)
		if d <= 0 {
			break
		}
		if d > cfg.scrapeInterval {
			d = cfg.scrapeInterval
		}
		time.Sleep(d)
		if _, err := monScrape(); err != nil {
			return nil, err
		}
	}
	drainDeadline := time.Now().Add(cfg.drainTimeout)
	var finalScrape []map[string]float64
	lastPub, lastDel, stableSince := -1.0, -1.0, time.Now()
	for {
		ms, err := monScrape()
		if err != nil {
			return nil, err
		}
		pub, del := sumOf(ms, "vitis_core_published_total"), sumOf(ms, "vitis_core_deliveries_total")
		if pub != lastPub || del != lastDel {
			lastPub, lastDel, stableSince = pub, del, time.Now()
		} else if time.Since(stableSince) >= cfg.stableFor && pub > 0 {
			finalScrape = ms
			break
		}
		if time.Now().After(drainDeadline) {
			return nil, fmt.Errorf("counters never stabilised: published=%v delivered=%v", pub, del)
		}
		time.Sleep(cfg.scrapeInterval)
	}
	loadSec := time.Since(joined).Seconds()

	// Offline-subscriber catch-up phase: the held-back subscribers start
	// only now, after the publish window closed and drained, so nothing can
	// reach them through live dissemination — every delivery they make must
	// come off a neighbor's store. The phase ends when all their catch-up
	// walks retire and their delivery counters go quiet.
	var catchUpSec float64
	if len(offline) > 0 {
		fmt.Fprintf(out, "starting %d offline subscribers for catch-up\n", len(offline))
		lateStart := time.Now()
		for _, i := range offline {
			if err := startNode(i); err != nil {
				return nil, err
			}
		}
		if err := awaitJoin(offline, time.Now().Add(cfg.joinTimeout)); err != nil {
			return nil, err
		}
		lateDeadline := time.Now().Add(cfg.drainTimeout)
		lastDel, stableSince := -1.0, time.Now()
		for {
			ms, err := monScrape()
			if err != nil {
				return nil, err
			}
			var del, pending float64
			for _, i := range offline {
				del += ms[i]["vitis_core_deliveries_total"]
				pending += ms[i]["vitis_store_catchup_topics_pending"]
			}
			if del != lastDel {
				lastDel, stableSince = del, time.Now()
			} else if pending == 0 && time.Since(stableSince) >= cfg.stableFor {
				break
			}
			if time.Now().After(lateDeadline) {
				return nil, fmt.Errorf("catch-up never drained: late deliveries=%v pending walks=%v", del, pending)
			}
			time.Sleep(cfg.scrapeInterval)
		}
		catchUpSec = time.Since(lateStart).Seconds()
		if finalScrape, err = monScrape(); err != nil {
			return nil, err
		}
	}

	// Leak detector: with the system drained and only background gossip
	// running, the goroutine population must be flat. A node that starts
	// a goroutine per peer keeps growing here as shuffles touch new peers.
	time.Sleep(cfg.stableFor)
	steadyScrape, err := monScrape()
	if err != nil {
		return nil, err
	}

	// Exact delivery accounting: each topic has one dedicated publisher,
	// so its published counter is the per-topic event count.
	var expected, published uint64
	for t := range pl.pubOf {
		n := uint64(finalScrape[pl.pubOf[t]]["vitis_core_published_total"])
		published += n
		expected += n * uint64(len(pl.subsOf[t]))
	}
	delivered := uint64(sumOf(finalScrape, "vitis_core_deliveries_total"))

	s := &summary{
		Nodes: cfg.nodes, Topics: cfg.topics, SubsPerNode: cfg.subsPerNode,
		Alpha: cfg.alpha, TotalRate: cfg.totalRate,
		PublishWindowSec: cfg.publishFor.Seconds(), PeriodMs: cfg.periodMs,
		JoinSec: joinSec, DurationSec: loadSec,
		Published: published, Expected: expected, Delivered: delivered,
		Cores:            runtime.NumCPU(),
		TxFrames:         uint64(sumOf(finalScrape, "vitis_transport_tx_frames_total")),
		TxDatagrams:      uint64(sumOf(finalScrape, "vitis_transport_tx_datagrams_total")),
		TxBytes:          uint64(sumOf(finalScrape, "vitis_transport_tx_bytes_total")),
		RxBytes:          uint64(sumOf(finalScrape, "vitis_transport_rx_bytes_total")),
		TxDropped:        uint64(sumOf(finalScrape, "vitis_transport_tx_dropped_total")),
		InboxDrops:       uint64(sumOf(finalScrape, "vitis_host_inbox_drops_total")),
		PeakRSSTotal:     uint64(sumOf(finalScrape, "vitis_proc_max_rss_bytes")),
		GoroutinesJoined: int64(sumOf(joinedScrape, "vitis_go_goroutines")),
		GoroutinesFinal:  int64(sumOf(finalScrape, "vitis_go_goroutines")),
	}
	for _, m := range finalScrape {
		if rss := uint64(m["vitis_proc_max_rss_bytes"]); rss > s.PeakRSSMax {
			s.PeakRSSMax = rss
		}
		s.GoroutinesMax = max(s.GoroutinesMax, int64(m["vitis_go_goroutines"]))
	}
	if expected > 0 {
		s.DeliveryRatio = float64(delivered) / float64(expected)
	}
	if loadSec > 0 {
		s.MsgsPerSec = float64(delivered) / loadSec
		s.MsgsPerSecCore = s.MsgsPerSec / float64(s.Cores)
	}
	if s.TxDatagrams > 0 {
		s.FramesPerDgram = float64(s.TxFrames) / float64(s.TxDatagrams)
	}
	if delivered > 0 {
		s.BytesPerDelivery = float64(s.TxBytes) / float64(delivered)
	}
	s.GoroutineGrowth = int64(sumOf(steadyScrape, "vitis_go_goroutines")) - s.GoroutinesFinal
	s.ProfileWants = uint64(sumOf(steadyScrape, "vitis_core_profile_wants_total") - sumOf(finalScrape, "vitis_core_profile_wants_total"))
	s.goroutineBudget = int64(cfg.maxGoroutineGrowth)
	if s.goroutineBudget == 0 {
		s.goroutineBudget = int64(cfg.nodes)
	}
	s.AlertsFired = mon.firedEver()
	if p50 := mon.col.Quantile(deliveryLatencyMetric, 0.5); !math.IsNaN(p50) {
		s.DeliveryP50Sec = p50
	}
	if p99 := mon.col.Quantile(deliveryLatencyMetric, 0.99); !math.IsNaN(p99) {
		s.DeliveryP99Sec = p99
	}

	rows := tableRows
	if storeRoot != "" {
		s.OfflineNodes = len(offline)
		s.CatchUpSec = catchUpSec
		s.CatchUpRequests = uint64(sumOf(finalScrape, "vitis_store_catchup_requests_total"))
		s.CatchUpServed = uint64(sumOf(finalScrape, "vitis_store_catchup_served_events_total"))
		s.CatchUpServedBytes = uint64(sumOf(finalScrape, "vitis_store_catchup_served_bytes_total"))
		s.CatchUpDeliveries = uint64(sumOf(finalScrape, "vitis_store_catchup_deliveries_total"))
		s.StoreAppends = uint64(sumOf(finalScrape, "vitis_store_appends_total"))
		s.StoreRecords = uint64(sumOf(finalScrape, "vitis_store_records"))
		rows = append(append([]string{}, tableRows...), storeRows...)
	}

	printTable(out, finalScrape, rows)
	fmt.Fprintf(out, "\npublished=%d expected=%d delivered=%d ratio=%.4f\n",
		published, expected, delivered, s.DeliveryRatio)
	if storeRoot != "" {
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
		loadSec, s.MsgsPerSec, s.MsgsPerSecCore, s.Cores)
	fmt.Fprintf(out, "wire: %d frames in %d datagrams (%.2f frames/datagram), %d tx bytes, %d rx bytes, %.0f wire bytes/delivery\n",
		s.TxFrames, s.TxDatagrams, s.FramesPerDgram, s.TxBytes, s.RxBytes, s.BytesPerDelivery)
	fmt.Fprintf(out, "memory: peak RSS max %.1f MiB per node, %.1f MiB total; goroutines %d at join -> %d drained (at most %d per node), steady growth %d over %s (budget %d)\n",
		float64(s.PeakRSSMax)/(1<<20), float64(s.PeakRSSTotal)/(1<<20),
		s.GoroutinesJoined, s.GoroutinesFinal, s.GoroutinesMax, s.GoroutineGrowth, cfg.stableFor, s.goroutineBudget)
	fmt.Fprintf(out, "quiet heartbeats: %d profile Wants over the same %s\n", s.ProfileWants, cfg.stableFor)

	if cfg.benchOut != "" {
		if err := writeBench(cfg, s); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "benchmark summary written to %s\n", cfg.benchOut)
	}
	return s, nil
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
		"goroutines_steady_growth compares vitis_go_goroutines totals across two post-drain scrapes one stable-for apart; a goroutine leaked per peer or per message grows here",
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
