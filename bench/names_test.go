package main

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"vitis/internal/workload"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json and testdata/golden-seed1.json from the code")

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestNamesAndUnitsAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRe.MatchString(name) {
			t.Errorf("%s name %q is malformed", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check("end-to-end", d.Name)
		if d.Bound <= 0 || d.Bound > 0.10 {
			t.Errorf("%s: bound %v outside (0, 0.10]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end-to-end metrics lack setup_s in s, lower is better")
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unitRe.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is malformed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayer {
		check("per-layer", d.Name)
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d per-layer, %d end-to-end metrics, %d workloads: outside the contract's limits", len(perLayer), len(endToEnd), len(workloads))
	}
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []workloadDef    `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

func codeManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, d := range endToEnd {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}

// BENCHMARK.json declares exactly the workloads and metrics the code
// defines, in both directions.
func TestManifestMatchesCode(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := codeManifest()
	if *update {
		js, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var got manifest
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the code's tables; run `go test -run TestManifestMatchesCode -update`\n got: %+v\nwant: %+v", got, want)
	}
}

func tinySim() simConfig {
	return simConfig{nodes: 16, topics: 40, subsPerNode: 10, buckets: 4, pattern: workload.HighCorrelation,
		warmRounds: 12, steadyRounds: 3, drainRounds: 2, perTopic: 1}
}

func keysOf(m map[string]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func namesOf(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// A run prints exactly the declared metric names: the end-to-end set
// untraced, the per-layer set traced.
func TestRunsPrintTheDeclaredNames(t *testing.T) {
	sim := tinySim()
	p := plan{name: "sim-converge", seconds: 1, sim: &sim}
	res, err := p.run(3, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.problems) > 0 {
		t.Errorf("tiny run not correct: %v", res.problems)
	}
	if got, want := keysOf(res.metrics), namesOf(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("untraced run printed %v, want %v", got, want)
	}
	for name, v := range res.metrics {
		if v <= 0 {
			t.Errorf("end-to-end metric %s = %v; must never be 0", name, v)
		}
	}
	out := t.TempDir()
	res, err = p.run(3, true, out)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := keysOf(res.metrics), namesOf(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("traced run printed %v, want %v", got, want)
	}
	if res.metrics["trace.spans"] == 0 || res.metrics["core.profile.msgs"] == 0 || res.metrics["rvr.run_s"] == 0 {
		t.Errorf("traced run recorded nothing: %v", res.metrics)
	}
	if !res.absent["store.append_us"] || res.absent["sampling.handle_s"] {
		t.Errorf("absent layers mis-marked: %v", res.absent)
	}
	if fi, err := os.Stat(filepath.Join(out, "sim-converge.trace.jsonl")); err != nil || fi.Size() == 0 {
		t.Errorf("trace file missing or empty: %v", err)
	}
}

// The real wire path in miniature, traced, with stores and late starters:
// every layer is present, so nothing may be marked absent but the baseline.
func TestTinyUDPCatchUpTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("starts three UDP clusters on loopback")
	}
	cfg := udpConfig{nodes: 8, topics: 4, subsPerNode: 2, gossipMs: 100, pubPeriodMs: 50,
		settle: 1500 * time.Millisecond, clusters: 2, windows: 1, grace: 200 * time.Millisecond, window: 500 * time.Millisecond,
		diskStore: true, heldFrac: 0.25, catchUpPhase: 2 * time.Second}
	p := plan{name: "udp-catchup", seconds: 1, udp: &cfg}
	out := t.TempDir()
	res, err := p.run(5, true, out)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.problems) > 0 {
		t.Errorf("tiny catch-up run not correct: %v", res.problems)
	}
	if got, want := keysOf(res.metrics), namesOf(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("traced run printed %v, want %v", got, want)
	}
	for name := range res.absent {
		if name != "rvr.run_s" && name != "simnet.ns_per_event" {
			t.Errorf("%s marked absent on udp-catchup", name)
		}
	}
	for _, name := range []string{"store.appends", "core.catchup.msgs", "core.catchup.drain_s", "transport.frames_per_datagram", "host.received", "setup.ready_s"} {
		if res.metrics[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.metrics[name])
		}
	}
	if left, _ := filepath.Glob(filepath.Join(out, "stores-*")); len(left) > 0 {
		t.Errorf("store directories left behind: %v", left)
	}
}

// docs/OPERATIONS.md's metric lint walks non-test code for "vitis_…"
// literals; the benchmark registers no metric of its own and must not look
// as if it did.
func TestNoMetricLiteralsInBench(t *testing.T) {
	lit := regexp.MustCompile(`"vitis_[a-z0-9_]*"`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if m := lit.Find(src); m != nil {
			t.Errorf("%s contains the metric-like literal %s", f, m)
		}
	}
}

func TestBalancedSubscriptions(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		subs, err := balancedSubscriptions(32, 8, 4, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		for topic, ss := range subs.SubscribersOf() {
			if len(ss) != 16 {
				t.Fatalf("seed %d: topic %d has %d subscribers, want 16", seed, topic, len(ss))
			}
		}
		for n, ts := range subs.Subs {
			if len(ts) != 4 {
				t.Fatalf("seed %d: node %d has %d topics", seed, n, len(ts))
			}
			for i := 1; i < len(ts); i++ {
				if ts[i] <= ts[i-1] {
					t.Fatalf("seed %d: node %d topics %v not strictly ascending", seed, n, ts)
				}
			}
		}
	}
	if _, err := balancedSubscriptions(5, 4, 3, rand.New(rand.NewSource(1))); err == nil {
		t.Error("5x3 over 4 topics cannot balance, want an error")
	}
}

// The committed seed-1 counts are what the code produces today.
func TestGoldenSeed1(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both simulator workloads at full size")
	}
	got := map[string]map[string]uint64{}
	for _, name := range []string{"sim-converge", "sim-publish"} {
		p, err := planFor(name, runSeconds)
		if err != nil {
			t.Fatal(err)
		}
		r, err := runSimRep(*p.sim, 1, repMode{})
		if err != nil {
			t.Fatal(err)
		}
		got[name] = r.namedCounts()
	}
	path := filepath.Join("testdata", "golden-seed1.json")
	if *update {
		js, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]uint64
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("seed-1 counts drifted from %s (regenerate with -update if the protocol change is meant):\n got: %v\nwant: %v", path, got, want)
	}
}
