package main

import (
	"fmt"
	"path/filepath"
)

// result is what one invocation reports.
type result struct {
	workload  string
	metrics   map[string]float64 // end-to-end, or per-layer in a traced run
	absent    map[string]bool    // per-layer metrics with nothing to measure: the workload lacks the layer, or the thing never happened
	attempted int                // deliveries owed
	failed    int                // deliveries missing or invalid
	problems  []string           // why the outputs are not correct; empty = correct
	notes     []string
}

func (r *result) problemf(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

// plan is one workload sized for a run: exactly one of sim and udp is set.
type plan struct {
	name    string
	seconds int
	sim     *simConfig
	udp     *udpConfig
}

func (p plan) isSim() bool     { return p.sim != nil }
func (p plan) catchesUp() bool { return p.udp != nil && p.udp.heldFrac > 0 }

func planFor(name string, seconds int) (plan, error) {
	p := plan{name: name, seconds: seconds}
	switch name {
	case "sim-converge":
		c := simConverge(seconds)
		p.sim = &c
	case "sim-publish":
		c := simPublish(seconds)
		p.sim = &c
	case "udp-idle":
		c := udpIdle(seconds)
		p.udp = &c
	case "udp-load":
		c := udpLoad(seconds)
		p.udp = &c
	case "udp-catchup":
		c := udpCatchUp(seconds)
		p.udp = &c
	default:
		return p, fmt.Errorf("unknown workload %q", name)
	}
	return p, nil
}

// run executes the plan. An untraced run makes the end-to-end repetitions;
// a traced run makes three fresh clusters instead (plain, live telemetry,
// live telemetry + tracing carrier) and reports the per-layer metrics,
// taking nothing end-to-end from the traced cluster.
func (p plan) run(seed int64, traced bool, outDir string) (*result, error) {
	modes := []repMode{{}, {}, {}}
	if traced {
		modes = []repMode{{}, {telemetry: true}, {telemetry: true, traced: true}}
	}
	var reps []*rep
	if p.sim != nil {
		for _, m := range modes {
			r, err := runSimRep(*p.sim, seed, m)
			if err != nil {
				return nil, err
			}
			reps = append(reps, r)
		}
	} else {
		cfg := *p.udp
		if traced {
			cfg.windows = 1
		} else {
			modes = modes[:cfg.clusters]
		}
		for k, m := range modes {
			sub := seed * 8 // the three clusters of a traced run are built alike
			if !traced {
				sub += int64(k)
			}
			rs, err := runUDPCluster(cfg, sub, m, outDir)
			if err != nil {
				return nil, err
			}
			reps = append(reps, rs...)
		}
	}

	res := &result{workload: p.name, metrics: map[string]float64{}, absent: map[string]bool{}}
	if p.sim != nil && seed == 1 && p.seconds == runSeconds {
		checkGolden(res, reps[0])
	}
	if !traced {
		p.verify(res, reps)
		p.endToEndMetrics(res, reps)
		return res, nil
	}
	p.verify(res, reps[:1])
	if err := perLayerMetrics(res, p, seed, reps[0], reps[1], reps[2], outDir); err != nil {
		return nil, err
	}
	return res, nil
}

// counts are the numbers a simulator repetition must reproduce exactly.
func (r *rep) counts() [10]uint64 {
	t := r.tally
	return [10]uint64{uint64(t.published), uint64(t.expected), uint64(t.delivered), r.wireBytes, r.datagrams,
		r.engineEvents, t.notif, t.unint, t.hopSum, t.hopN}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// maxLateMs is how late the median tick of an open-loop repetition may run.
const maxLateMs = 5

// verify checks the outputs of the untraced repetitions.
func (p plan) verify(res *result, reps []*rep) {
	for i, r := range reps {
		t := r.tally
		res.attempted += t.expected
		res.failed += t.expected - t.delivered + t.invalid
		if t.published == 0 || t.expected == 0 {
			res.problemf("repetition %d published nothing", i)
			continue
		}
		if t.invalid > 0 {
			res.problemf("repetition %d: %d deliveries outside the expected set or repeated for one subscriber", i, t.invalid)
		}
		floor := 0.999
		if p.isSim() || p.catchesUp() {
			floor = 0.99
		}
		if dr := ratio(float64(t.delivered), float64(t.expected)); dr < floor {
			res.problemf("repetition %d: delivery_ratio %.5f below %.3f", i, dr, floor)
		}
		if p.isSim() {
			if r.counts() != reps[0].counts() {
				res.problemf("repetition %d disagrees with repetition 0 on a count: %v vs %v", i, r.counts(), reps[0].counts())
			}
			continue
		}
		if !p.catchesUp() && r.udp.inboxDrops > 0 {
			res.problemf("repetition %d: %d host inbox drops", i, r.udp.inboxDrops)
		}
		late50 := percentile(t.lateMs, 0.5)
		res.notes = append(res.notes, fmt.Sprintf("repetition %d: generator lateness p50 %.3f ms, p99 %.3f ms, max %.3f ms over %d publishes",
			i, late50, percentile(t.lateMs, 0.99), maxOf(t.lateMs), len(t.lateMs)))
		// A stall of the shared box makes a tail of ticks late and is noise
		// (gen.late_p99_ms reports it, and latency is timed from the due
		// time, so it is charged). A repetition whose median tick is late
		// was not open loop, and it would feed the run's median latency.
		if late50 > maxLateMs {
			res.problemf("repetition %d: generator ticks ran a median of %.2f ms late (limit %d ms)", i, late50, maxLateMs)
		}
	}
}

// endToEndMetrics folds the repetitions into the end-to-end metrics, each
// the median over the repetitions (sim-* set-up: see hardSetup).
func (p plan) endToEndMetrics(res *result, reps []*rep) {
	var setups []float64
	per := map[string][]float64{}
	for _, r := range reps {
		if r.firstWindow { // later windows of a cluster share its set-up
			setups = append(setups, r.setupS)
		}
		t := r.tally
		d := float64(t.delivered)
		add := func(k string, v float64) { per[k] = append(per[k], v) }
		add("delivery_ratio", ratio(d, float64(t.expected)))
		if p.isSim() {
			add("delivery_p50_ms", tickPercentile(t.lat, 0.5, 1))
		} else {
			add("delivery_p50_ms", percentile(t.lat, 0.5))
		}
		add("wire_bytes_per_delivery", ratio(float64(r.wireBytes), d))
		add("datagrams_per_delivery", ratio(float64(r.datagrams), d))
		add("mallocs_per_delivery", ratio(float64(r.proc.mallocs), d))
		add("delay_hops", ratio(float64(t.hopSum), float64(t.hopN)))
	}
	m := res.metrics
	m["setup_s"] = median(setups)
	for k, v := range per {
		m[k] = median(v)
	}
	if p.isSim() {
		m["setup_s"] = hardSetup(reps)
	}
	m["peak_rss_mb"] = peakRSSMB()
	samples := 0
	for _, r := range reps {
		samples += len(r.tally.lat)
	}
	for i, r := range reps {
		res.notes = append(res.notes, fmt.Sprintf("repetition %d: %d deliveries for %.3f CPU-s in %.3f s (%.0f per CPU-s), traffic overhead %.4f",
			i, r.tally.delivered, r.proc.cpuS(), r.proc.wallS, ratio(float64(r.tally.delivered), r.proc.cpuS()), ratio(float64(r.tally.unint), float64(r.tally.notif))))
	}
	res.notes = append(res.notes, fmt.Sprintf("delivery_p50_ms over %d latency samples in %d repetitions", samples, len(reps)))
}

// hardSetup is the set-up time of identical repetitions (sim-*): every step
// of the set-up does the same work in each repetition, so each step takes
// the quickest repetition's time and the steps are summed. A stall shorter
// than a repetition cannot reach the result.
func hardSetup(reps []*rep) float64 {
	total := 0.0
	for k := range reps[0].setupPhases {
		best := reps[0].setupPhases[k]
		for _, r := range reps[1:] {
			best = min(best, r.setupPhases[k])
		}
		total += best
	}
	return total
}

// perLayerMetrics derives the per-layer set from a traced run's three
// clusters and the micro-measurements that follow it.
func perLayerMetrics(res *result, p plan, seed int64, plain, telem, traced *rep, outDir string) error {
	m := res.metrics
	na := func(names ...string) {
		for _, n := range names {
			m[n] = 0
			res.absent[n] = true
		}
	}
	tr := traced.trace
	d := float64(plain.tally.delivered)

	m["workload.generate_ms"] = plain.generateMs
	m["simnet.events_per_delivery"] = ratio(float64(plain.engineEvents), d)
	if p.isSim() {
		m["simnet.ns_per_event"] = ratio(plain.proc.cpuS()*1e9, float64(plain.engineEvents))
	} else {
		na("simnet.ns_per_event") // a real node's engine runs only its timers; the CPU goes elsewhere
	}
	var handleNs, sendNs int64
	var allBytes, ctrlBytes uint64
	for i, a := range tr.agg {
		handleNs += a.selfNs
		sendNs += a.sendNs
		allBytes += a.sentB
		if !dataLayer(i) {
			ctrlBytes += a.sentB
		}
		if i < len(layers) {
			m[layers[i]+".handle_s"] = float64(a.selfNs) / 1e9
			m[layers[i]+".msgs"] = float64(a.sent)
			m[layers[i]+".bytes"] = float64(a.sentB)
		}
	}
	m["simnet.self_s"] = traced.proc.cpuS() - float64(handleNs+sendNs)/1e9 - traced.tally.hookS
	depth := plain.queueDepth
	if !p.isSim() {
		depth = 64 // a real node's engine holds only its own timers
	}
	m["simnet.schedule_ns"] = scheduleCost(depth)

	td := float64(traced.tally.delivered)
	m["core.dup_notif_ratio"] = ratio(float64(traced.node.duplicates), float64(traced.node.notifications))
	m["core.forwards_per_delivery"] = ratio(float64(traced.node.forwards), td)
	m["core.relay_lookups"] = float64(traced.node.relayLookups)
	m["core.gateway_changes"] = float64(traced.node.gatewayChanges)
	m["core.replay_served"] = float64(traced.node.replayServed)
	m["core.ctrl_bytes_share"] = ratio(float64(ctrlBytes), float64(allBytes))

	var err error
	if m["wire.encode_ns_per_frame"], m["wire.decode_ns_per_frame"], m["wire.bytes_per_frame"], err = wireCosts(tr.corpus); err != nil {
		return err
	}
	m["telemetry.counter_inc_ns"], m["telemetry.histogram_observe_ns"] = telemetryCosts()
	m["telemetry.on_cost_pct"] = 100 * ratio(telem.proc.cpuS()-plain.proc.cpuS(), plain.proc.cpuS())
	m["trace.overhead_pct"] = 100 * ratio(traced.proc.cpuS()-telem.proc.cpuS(), telem.proc.cpuS())
	m["trace.spans"] = float64(tr.spanCount)

	if p.isSim() {
		na("transport.send_call_ns", "transport.frames_per_datagram", "transport.env_overhead_bytes_per_datagram",
			"transport.tx_dropped", "transport.rx_unroutable", "transport.flushers_peak",
			"transport.oneway_p50_us", "transport.oneway_p99_us", "host.inbox_drops", "host.received")
		m["gen.late_p99_ms"] = 0 // virtual-time publishes are never late
		m["proc.goroutines_peak"] = 1
	} else {
		u := traced.udp
		var sends uint64
		for _, a := range tr.agg {
			sends += a.sent
		}
		m["transport.send_call_ns"] = ratio(float64(sendNs), float64(sends))
		m["transport.frames_per_datagram"] = ratio(float64(u.txFrames), float64(u.txDatagrams))
		m["transport.env_overhead_bytes_per_datagram"] = ratio(float64(u.txBytes)-float64(allBytes), float64(u.txDatagrams))
		m["transport.tx_dropped"] = float64(u.txDropped)
		m["transport.rx_unroutable"] = float64(u.rxUnroutable)
		m["transport.flushers_peak"] = float64(u.flushersPeak)
		m["host.inbox_drops"] = float64(u.inboxDrops)
		m["host.received"] = float64(u.hostReceived)
		m["proc.goroutines_peak"] = float64(u.goroutinesPeak)
		m["gen.late_p99_ms"] = percentile(plain.tally.lateMs, 0.99)
		if m["transport.oneway_p50_us"], m["transport.oneway_p99_us"], err = onewayProbe(); err != nil {
			return err
		}
	}
	if p.catchesUp() {
		m["core.catchup.drain_s"] = plain.catchupDrainS
		m["store.appends"] = float64(traced.udp.storeAppends)
		m["store.segments"] = float64(traced.udp.storeSegments)
		sc, err := storeCosts(outDir)
		if err != nil {
			return err
		}
		m["store.append_us"], m["store.append_fsync_us"] = sc.appendUs, sc.appendFsyncUs
		m["store.readrange_us_per_record"], m["store.bytes_per_record"] = sc.readUsPerRecord, sc.bytesPerRecord
	} else {
		na("core.catchup.drain_s", "store.append_us", "store.append_fsync_us", "store.readrange_us_per_record",
			"store.bytes_per_record", "store.appends", "store.segments")
	}
	if p.name == "sim-converge" {
		if m["rvr.run_s"], err = rvrRun(*p.sim, seed); err != nil {
			return err
		}
	} else {
		na("rvr.run_s")
	}

	m["proc.deliveries_per_cpu_s"] = ratio(d, plain.proc.cpuS())
	m["proc.traffic_overhead"] = ratio(float64(plain.tally.unint), float64(plain.tally.notif))
	m["proc.user_cpu_s"], m["proc.sys_cpu_s"] = plain.proc.userS, plain.proc.sysS
	m["proc.gc_cycles"] = float64(plain.proc.gcCycles)
	m["proc.gc_cpu_frac"] = ratio(plain.proc.gcCPUS, plain.proc.cpuS())
	m["proc.alloc_bytes_per_delivery"] = ratio(float64(plain.proc.allocBytes), d)
	lat := plain.tally.lat
	if p.isSim() {
		m["deliver.latency_p90_ms"], m["deliver.latency_p99_ms"] = tickPercentile(lat, 0.9, 1), tickPercentile(lat, 0.99, 1)
	} else {
		m["deliver.latency_p90_ms"], m["deliver.latency_p99_ms"] = percentile(lat, 0.9), percentile(lat, 0.99)
	}
	m["deliver.latency_samples"] = float64(len(lat))
	m["setup.cpu_s"] = plain.setupCPU
	if m["setup.ready_s"] = traced.readyS; traced.readyS == 0 {
		na("setup.ready_s") // no probe round reached every subscriber during set-up
	}
	m["gen.published"] = float64(plain.tally.published)
	m["bench.hook_s"] = traced.tally.hookS

	path := filepath.Join(outDir, p.name+".trace.jsonl")
	if err := writeTrace(path, tr.spans); err != nil {
		return err
	}
	res.notes = append(res.notes, fmt.Sprintf("trace: %d of %d spans written to %s", len(tr.spans), tr.spanCount, path))
	return nil
}
