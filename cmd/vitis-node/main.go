// Command vitis-node runs one Vitis peer as a real process: the same
// protocol stack the simulator exercises (internal/core over sampling,
// tman and bootstrap), but driven against the wall clock and talking UDP
// through the internal/wire codec. The node itself — join, announces,
// isolation and rejoin — is internal/deploy's; this command adds the flags,
// the socket, the store, signals and HTTP.
//
// A tiny cluster on the loopback interface:
//
//	vitis-node -role bootstrap -listen 127.0.0.1:7000 -seed 1 &
//	vitis-node -listen 127.0.0.1:0 -bootstrap 127.0.0.1:7000 -seed 2 \
//	    -publish news=1 -metrics-addr 127.0.0.1:9100 &
//	vitis-node -listen 127.0.0.1:0 -bootstrap 127.0.0.1:7000 -seed 3 \
//	    -subscribe news &
//
// Each node prints "id=<hex> listening on <addr>" at startup and one
// "DELIVER ..." line per event delivered to a local subscription. With
// -metrics-addr the node serves Prometheus text on /metrics, liveness on
// /healthz and the Go profiler under /debug/pprof/. With -trace every
// hop-level protocol event is appended to a JSONL span file that
// "vitis-trace spans" turns back into propagation trees. SIGUSR1 dumps the
// metric registry to stdout; SIGINT/SIGTERM dump it and exit cleanly.
//
// With -store <dir> the node persists every event it publishes, delivers
// or relays to a durable on-disk log (internal/store) and serves ranged
// catch-up requests from it; on (re)join it walks its subscribed topics'
// history on its neighbors' stores, so a subscriber that was offline
// recovers the events it missed. Retention is tuned with
// -store-retain-bytes / -store-retain-age; the store is flushed and closed
// on SIGTERM, and /healthz reports its record counts.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vitis/internal/core"
	"vitis/internal/deploy"
	"vitis/internal/idspace"
	"vitis/internal/simnet"
	"vitis/internal/store"
	"vitis/internal/telemetry"
	"vitis/internal/transport"
	"vitis/internal/transport/chaos"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.listen, "listen", "127.0.0.1:0", "UDP address to bind")
	flag.StringVar(&cfg.role, "role", "node", "node or bootstrap")
	flag.StringVar(&cfg.bootAddr, "bootstrap", "", "bootstrap server address (role=node)")
	flag.StringVar(&cfg.subscribe, "subscribe", "", "comma-separated topic names to subscribe")
	flag.StringVar(&cfg.publish, "publish", "", "comma-separated topic=rate pairs to publish (auto-subscribes), e.g. 'news=0.5,sport=2'")
	flag.DurationVar(&cfg.publishFor, "publish-for", 0, "stop publishing this long after the window opens (0 = never stop)")
	flag.DurationVar(&cfg.publishDelay, "publish-delay", 0, "open the publish window this long after joining, letting the overlay converge")
	flag.BoolVar(&cfg.quiet, "quiet", false, "suppress per-event DELIVER lines (metrics still count them)")
	flag.Int64Var(&cfg.seed, "seed", 0, "identity and RNG seed (0 = derived from pid and time)")
	flag.Int64Var(&cfg.periodMs, "period-ms", 1000, "gossip and heartbeat period in milliseconds")
	flag.StringVar(&cfg.metricsAddr, "metrics-addr", "", "HTTP address for /metrics, /healthz and /debug/pprof (empty = off)")
	flag.StringVar(&cfg.tracePath, "trace", "", "append hop-level JSONL spans to this file (empty = off)")
	flag.StringVar(&cfg.chaosSpec, "chaos", os.Getenv("VITIS_CHAOS"),
		"fault-injection scenario, e.g. 'drop=0.2,delay=5ms-30ms;island@5s+10s' (default $VITIS_CHAOS)")
	flag.StringVar(&cfg.storeDir, "store", "", "directory for the durable event store (empty = off)")
	flag.Int64Var(&cfg.storeCfg.RetainBytes, "store-retain-bytes", 0, "drop oldest store segments past this total size (0 = unbounded)")
	flag.DurationVar(&cfg.storeCfg.RetainAge, "store-retain-age", 0, "drop store segments whose newest record is older than this (0 = unbounded)")
	flag.IntVar(&cfg.storeCfg.SegmentBytes, "store-segment-bytes", 0, "store segment rotation size in bytes (0 = 4 MiB)")
	flag.IntVar(&cfg.storeCfg.FsyncEvery, "store-fsync-every", 0, "fsync the store after this many appends (0 = 64)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "vitis-node: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	if cfg.seed == 0 {
		cfg.seed = int64(os.Getpid()) ^ time.Now().UnixNano()
	}
	if cfg.periodMs <= 0 {
		fatalf("-period-ms must be positive")
	}
	if err := run(cfg); err != nil {
		fatalf("%v", err)
	}
}

// topicRate is one parsed -publish entry.
type topicRate struct {
	topic core.TopicID
	rate  float64
}

// parsePublish parses the -publish spec: comma-separated topic=rate pairs,
// rate in events per second.
func parsePublish(spec string) ([]topicRate, error) {
	if spec == "" {
		return nil, nil
	}
	var out []topicRate
	for _, part := range strings.Split(spec, ",") {
		name, rate, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("-publish entry %q is not topic=rate", part)
		}
		r, err := strconv.ParseFloat(rate, 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("-publish entry %q has invalid rate", part)
		}
		out = append(out, topicRate{topic: core.Topic(strings.TrimSpace(name)), rate: r})
	}
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vitis-node: "+format+"\n", args...)
	os.Exit(1)
}

type config struct {
	listen, role, bootAddr, subscribe string
	publish                           string
	publishFor, publishDelay          time.Duration
	quiet                             bool
	seed, periodMs                    int64
	metricsAddr, tracePath            string
	chaosSpec                         string
	storeDir                          string
	storeCfg                          store.DiskConfig
}

func run(cfg config) error {
	reg := telemetry.NewRegistry()

	var tracer *telemetry.Tracer
	if cfg.tracePath != "" {
		f, err := os.OpenFile(cfg.tracePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		// Spans are stamped with unix milliseconds — the same clock every
		// other node uses — so vitis-trace can compute cross-process
		// publish→deliver latency from a merged trace.
		tracer = telemetry.NewTracer(f, func() int64 { return time.Now().UnixMilli() })
		defer tracer.Close()
	}

	udp, err := transport.ListenUDP(cfg.listen, transport.UDPConfig{
		Metrics: telemetry.NewTransportMetrics(reg),
	})
	if err != nil {
		return err
	}
	defer udp.Close()

	// With a -chaos scenario the node's own traffic runs through the fault
	// injector; the controller's counters land on /metrics as vitis_chaos_*.
	// Resolve's hellos talk to the socket directly and stay fault-free, so
	// a node can always discover its bootstrap id before chaos begins.
	var carrier transport.Transport = udp
	var ctl *chaos.Controller
	if cfg.chaosSpec != "" {
		scen, err := chaos.ParseScenario(cfg.chaosSpec)
		if err != nil {
			return err
		}
		ctl = scen.Controller(telemetry.NewChaosMetrics(reg))
		defer ctl.Close()
		carrier = ctl.Wrap(udp)
		fmt.Printf("chaos enabled: %s\n", scen)
	}

	eng := simnet.NewEngine(cfg.seed)
	host := transport.NewHost(eng, carrier, telemetry.NewHostMetrics(reg))
	self := idspace.HashUint64(uint64(cfg.seed))
	period := simnet.Time(cfg.periodMs)

	reg.CounterFunc("vitis_engine_events_total", "Discrete events executed by the node's engine.",
		func() float64 { return float64(eng.EventsExecuted()) })
	reg.GaugeFunc("vitis_go_goroutines", "Live goroutines in this process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("vitis_proc_max_rss_bytes", "Peak resident set size of this process.",
		func() float64 { return float64(peakRSSBytes()) })

	// Signals are registered before the first readiness line: Go drops a
	// SIGUSR1 nobody listens for, and a caller may signal as soon as it
	// reads "listening on".
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	defer signal.Stop(usr1)

	fmt.Printf("id=%016x listening on %s\n", uint64(self), udp.LocalAddr())

	// node stays nil on a bootstrap server; evStore stays nil without -store.
	var node *deploy.Node
	var evStore store.EventStore
	switch cfg.role {
	case "bootstrap":
		if cfg.storeDir != "" {
			return fmt.Errorf("-store applies to role=node only")
		}
		deploy.Bootstrap(host, self, period)
	case "node":
		if cfg.bootAddr == "" {
			return fmt.Errorf("role=node requires -bootstrap")
		}
		bsID, err := udp.Resolve(cfg.bootAddr, 15*time.Second)
		if err != nil {
			return err
		}
		fmt.Printf("bootstrap %s is node %016x\n", cfg.bootAddr, uint64(bsID))
		pubs, err := parsePublish(cfg.publish)
		if err != nil {
			return err
		}
		if cfg.storeDir != "" {
			scfg := cfg.storeCfg
			scfg.Metrics = telemetry.NewStoreMetrics(reg)
			ds, err := store.OpenDisk(cfg.storeDir, scfg)
			if err != nil {
				return fmt.Errorf("opening event store: %w", err)
			}
			evStore = ds
			st := ds.Stats()
			fmt.Printf("store open dir=%s records=%d bytes=%d segments=%d\n",
				cfg.storeDir, st.Records, st.Bytes, st.Segments)
		}
		var topics []core.TopicID
		for _, name := range strings.Split(cfg.subscribe, ",") {
			if name = strings.TrimSpace(name); name != "" {
				topics = append(topics, core.Topic(name))
			}
		}
		for _, pr := range pubs {
			topics = append(topics, pr.topic) // Subscribe is idempotent
		}
		onDeliver := func(n core.NodeID, topic core.TopicID, ev core.EventID, hops int) {
			fmt.Printf("DELIVER node=%016x topic=%016x event=%016x:%d hops=%d\n",
				uint64(n), uint64(topic), uint64(ev.Publisher), ev.Seq, hops)
		}
		if cfg.quiet {
			onDeliver = nil // a 100-node cluster would flood stdout
		}
		node = deploy.New(host, deploy.Config{
			Self: self, Bootstrap: bsID, Period: period, Subscribe: topics,
			Registry: reg, Tracer: tracer, Store: evStore, OnDeliver: onDeliver,
			Log: os.Stdout,
		})
		for _, pr := range pubs {
			schedulePublish(eng, node, pr, cfg.publishDelay, cfg.publishFor)
		}
	default:
		return fmt.Errorf("unknown -role %q (want node or bootstrap)", cfg.role)
	}

	srv, err := serveMetrics(cfg.metricsAddr, reg, node, evStore)
	if err != nil {
		return err
	}

	// Everything above touched the engine before the driver owns it; from
	// here on, protocol work happens only on the driver goroutine.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sigusrLoop(ctx, reg, usr1)
	}()
	if ctl != nil {
		// Arm scheduled partitions now that the node's id is attached, so
		// member-less partition clauses isolate this process.
		ctl.Start()
	}
	transport.NewDriver(host).Run(ctx)

	// Shutdown: the driver returned because ctx was cancelled. Drain the
	// HTTP server and the signal loop before the final dump, so the process
	// exits with no goroutine still holding resources.
	if srv != nil {
		shCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		if err := srv.Shutdown(shCtx); err != nil {
			srv.Close()
		}
		cancel()
	}
	wg.Wait()
	// The driver is stopped, so nothing appends anymore: flush the tail and
	// release the store before reporting — a durable log that loses its last
	// page on SIGTERM defeats its purpose.
	if evStore != nil {
		st := evStore.Stats()
		if err := evStore.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "vitis-node: closing event store: %v\n", err)
		} else {
			fmt.Printf("store closed records=%d bytes=%d segments=%d\n",
				st.Records, st.Bytes, st.Segments)
		}
	}
	printMetrics(reg)
	if tracer != nil {
		if err := tracer.Flush(); err != nil {
			return fmt.Errorf("flushing trace: %w", err)
		}
		fmt.Printf("trace spans=%d file=%s\n", tracer.Emitted(), cfg.tracePath)
	}
	return nil
}

// serveMetrics starts the observability HTTP listener: Prometheus text on
// /metrics, join state on /healthz (a bootstrap server, with a nil node, is
// born ready; a joined node adds a delivery-latency summary line and, with
// -store, a store summary line), the Go profiler under /debug/pprof/. A nil
// server is returned when addr is empty.
func serveMetrics(addr string, reg *telemetry.Registry, node *deploy.Node, evStore store.EventStore) (*http.Server, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	// Every read below is safe off the driver goroutine: Joined and the
	// instruments are atomic, Stats locks the store.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if node == nil {
			fmt.Fprintln(w, "ok")
			return
		}
		if !node.Joined() {
			http.Error(w, "joining", http.StatusServiceUnavailable)
			return
		}
		m := node.Metrics()
		fmt.Fprintln(w, "ok")
		fmt.Fprintf(w, "latency deliveries=%d p50=%.3fs p99=%.3fs\n",
			m.DeliveryLatency.Count(), m.DeliveryLatency.Quantile(0.5), m.DeliveryLatency.Quantile(0.99))
		if evStore != nil {
			s := evStore.Stats()
			fmt.Fprintf(w, "store records=%d bytes=%d topics=%d segments=%d catchup_pending=%d\n",
				s.Records, s.Bytes, s.Topics, s.Segments, m.CatchUpPending.Value())
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	fmt.Printf("metrics listening on %s\n", ln.Addr())
	return srv, nil
}

// schedulePublish publishes to pr.topic at pr.rate events per second. The
// window opens delay after the join, letting routing tables and
// subscription state converge first, and admits publishes for dur from then
// on; a zero dur never closes it.
func schedulePublish(eng *simnet.Engine, node *deploy.Node, pr topicRate, delay, dur time.Duration) {
	eng.Every(max(simnet.Time(1000/pr.rate), 1), func() bool {
		if !node.Joined() {
			return true
		}
		since := time.Duration(eng.Now()-node.JoinedAt()) * time.Millisecond
		if dur > 0 && since >= delay+dur {
			return false
		}
		if since >= delay {
			node.Publish(pr.topic)
		}
		return true
	})
}

// peakRSSBytes reports the process's peak resident set size.
func peakRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports KiB
}

// sigusrLoop dumps the metric registry on every SIGUSR1 that arrives on ch
// until ctx ends.
func sigusrLoop(ctx context.Context, reg *telemetry.Registry, ch <-chan os.Signal) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-ch:
			printMetrics(reg)
		}
	}
}

// printMetrics writes one parseable METRIC line per registered sample. Only
// atomic instruments and scrape functions are read: safe off the driver
// goroutine.
func printMetrics(reg *telemetry.Registry) {
	for _, s := range reg.Snapshot() {
		fmt.Printf("METRIC %s %s\n", s.Name, strconv.FormatFloat(s.Value, 'g', -1, 64))
	}
}
