package main

// The benchmark's vocabulary: workloads, end-to-end metrics and per-layer
// metrics. BENCHMARK.json at the repository root is generated from these
// tables (go test -run TestManifest -update) and a test keeps the two equal
// in both directions.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; unused for per-layer metrics.
	Bound float64
}

// runSeconds is the measured time of one run at the driver's settings; the
// amount of work of every workload is a fixed function of -seconds.
const runSeconds = 10

var workloads = []workloadDef{
	{"sim-converge", "overlay construction in the simulator: gossip (sampling, tman, core select/profile, simnet) does nearly all the work, dissemination almost none"},
	{"sim-publish", "dissemination in the simulator: random subscriptions with skewed rates, so core forward/relay and the simnet scheduler work and gossip is background"},
	{"udp-idle", "real UDP wire path on loopback carrying almost only control traffic: 48 nodes, 24 ev/s; where bytes per delivery and frames per datagram must show"},
	{"udp-load", "real UDP wire path with data frames dominating: 32 nodes at 200 ev/s; wire codec, transport batching, host inbox, driver, core data plane, recovery rings"},
	{"udp-catchup", "store writes and reads side by side: disk store per node, a quarter of subscribers start late and backfill through the catch-up protocol"},
}

// Bounds are one per metric (the contract has no per-workload bound), so
// each takes what its noisiest workload needs; NOISE.md is the measurement.
// None exceeds a tenth.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.10},
	{"delivery_ratio", "ratio", "higher", 0.01},
	{"delivery_p50_ms", "ms", "lower", 0.10},
	{"wire_bytes_per_delivery", "B", "lower", 0.10},
	{"datagrams_per_delivery", "count", "lower", 0.10},
	{"mallocs_per_delivery", "count", "lower", 0.10},
	{"delay_hops", "hops", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// layers are the message classes the traced carrier tells apart; each gets
// handle_s, msgs and bytes.
var layers = []string{"sampling", "tman", "core.profile", "core.notify", "core.relay", "core.catchup"}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		{Name: "workload.generate_ms", Unit: "ms", Better: "lower"},
		{Name: "simnet.events_per_delivery", Unit: "count", Better: "lower"},
		{Name: "simnet.ns_per_event", Unit: "ns", Better: "lower"},
		{Name: "simnet.self_s", Unit: "s", Better: "lower"},
		{Name: "simnet.schedule_ns", Unit: "ns", Better: "lower"},
	}
	for _, l := range layers {
		m = append(m,
			metricDef{Name: l + ".handle_s", Unit: "s", Better: "lower"},
			metricDef{Name: l + ".msgs", Unit: "count", Better: "lower"},
			metricDef{Name: l + ".bytes", Unit: "B", Better: "lower"})
	}
	return append(m, []metricDef{
		{Name: "core.catchup.drain_s", Unit: "s", Better: "lower"},
		{Name: "core.dup_notif_ratio", Unit: "ratio", Better: "lower"},
		{Name: "core.forwards_per_delivery", Unit: "count", Better: "lower"},
		{Name: "core.relay_lookups", Unit: "count", Better: "lower"},
		{Name: "core.gateway_changes", Unit: "count", Better: "lower"},
		{Name: "core.replay_served", Unit: "count", Better: "lower"},
		{Name: "core.ctrl_bytes_share", Unit: "ratio", Better: "lower"},
		{Name: "wire.encode_ns_per_frame", Unit: "ns", Better: "lower"},
		{Name: "wire.decode_ns_per_frame", Unit: "ns", Better: "lower"},
		{Name: "wire.bytes_per_frame", Unit: "B", Better: "lower"},
		{Name: "transport.send_call_ns", Unit: "ns", Better: "lower"},
		{Name: "transport.frames_per_datagram", Unit: "count", Better: "higher"},
		{Name: "transport.env_overhead_bytes_per_datagram", Unit: "B", Better: "lower"},
		{Name: "transport.tx_dropped", Unit: "count", Better: "lower"},
		{Name: "transport.rx_unroutable", Unit: "count", Better: "lower"},
		{Name: "transport.flushers_peak", Unit: "count", Better: "lower"},
		{Name: "transport.oneway_p50_us", Unit: "us", Better: "lower"},
		{Name: "transport.oneway_p99_us", Unit: "us", Better: "lower"},
		{Name: "host.inbox_drops", Unit: "count", Better: "lower"},
		{Name: "host.received", Unit: "count", Better: "lower"},
		{Name: "store.append_us", Unit: "us", Better: "lower"},
		{Name: "store.append_fsync_us", Unit: "us", Better: "lower"},
		{Name: "store.readrange_us_per_record", Unit: "us", Better: "lower"},
		{Name: "store.bytes_per_record", Unit: "B", Better: "lower"},
		{Name: "store.appends", Unit: "count", Better: "lower"},
		{Name: "store.segments", Unit: "count", Better: "lower"},
		{Name: "telemetry.counter_inc_ns", Unit: "ns", Better: "lower"},
		{Name: "telemetry.histogram_observe_ns", Unit: "ns", Better: "lower"},
		{Name: "telemetry.on_cost_pct", Unit: "%", Better: "lower"},
		{Name: "rvr.run_s", Unit: "s", Better: "lower"},
		{Name: "proc.deliveries_per_cpu_s", Unit: "1/s", Better: "higher"},
		{Name: "proc.traffic_overhead", Unit: "ratio", Better: "lower"},
		{Name: "proc.user_cpu_s", Unit: "s", Better: "lower"},
		{Name: "proc.sys_cpu_s", Unit: "s", Better: "lower"},
		{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
		{Name: "proc.gc_cpu_frac", Unit: "ratio", Better: "lower"},
		{Name: "proc.alloc_bytes_per_delivery", Unit: "B", Better: "lower"},
		{Name: "proc.goroutines_peak", Unit: "count", Better: "lower"},
		{Name: "deliver.latency_p90_ms", Unit: "ms", Better: "lower"},
		{Name: "deliver.latency_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "deliver.latency_samples", Unit: "count", Better: "higher"},
		{Name: "setup.cpu_s", Unit: "s", Better: "lower"},
		{Name: "setup.ready_s", Unit: "s", Better: "lower"},
		{Name: "gen.late_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "gen.published", Unit: "count", Better: "higher"},
		{Name: "bench.hook_s", Unit: "s", Better: "lower"},
		{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
		{Name: "trace.spans", Unit: "count", Better: "lower"},
	}...)
}
