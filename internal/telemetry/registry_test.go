package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	g := r.Gauge("g", "a gauge")
	h := r.Histogram("h", "a histogram", 1, 5)

	c.Inc()
	c.Add(2)
	g.Set(7)
	g.Add(-2)
	h.Observe(0.5)
	h.Observe(3)
	h.Observe(99)

	if c.Value() != 3 {
		t.Errorf("counter = %d, want 3", c.Value())
	}
	if g.Value() != 5 {
		t.Errorf("gauge = %d, want 5", g.Value())
	}
	if h.Count() != 3 || h.Sum() != 102.5 {
		t.Errorf("histogram count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("vitis_test_total", "help text")
	c.Add(42)
	h := r.Histogram("vitis_hops", "hops", 1, 2)
	h.Observe(1)
	h.Observe(2)
	h.Observe(9)
	r.GaugeFunc("vitis_fn", "from fn", func() float64 { return 1.5 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP vitis_test_total help text",
		"# TYPE vitis_test_total counter",
		"vitis_test_total 42",
		`vitis_hops_bucket{le="1"} 1`,
		`vitis_hops_bucket{le="2"} 2`,
		`vitis_hops_bucket{le="+Inf"} 3`,
		"vitis_hops_sum 12",
		"vitis_hops_count 3",
		"# TYPE vitis_fn gauge",
		"vitis_fn 1.5",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(1)
	r.Gauge("b", "").Set(-2)
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Name != "a_total" || snap[0].Value != 1 ||
		snap[1].Name != "b" || snap[1].Value != -2 {
		t.Errorf("snapshot = %+v", snap)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate metric name")
		}
	}()
	r.Counter("dup", "")
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "", 1)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	// All of these must be safe no-ops.
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(2)
	r.CounterFunc("f", "", func() float64 { return 0 })
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments must read zero")
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot must be nil")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Error(err)
	}
	bundle := NewNodeMetrics(nil)
	bundle.Deliveries.Inc()
	bundle.DeliveryHops.Observe(3)
	bundle.Sampler.Rounds.Inc()
	if bundle.Deliveries.Value() != 0 {
		t.Error("disabled bundle must not count")
	}
}

func TestNodeMetricsRegistersEverything(t *testing.T) {
	r := NewRegistry()
	m := NewNodeMetrics(r)
	m.Deliveries.Add(2)
	m.RoutingTableSize.Set(15)
	m.DeliveryHops.Observe(4)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"vitis_core_deliveries_total 2",
		"vitis_core_routing_table_size 15",
		"vitis_core_delivery_hops_count 1",
		"vitis_sampling_rounds_total 0",
		"vitis_tman_rounds_total 0",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestTransportAndHostMetricsLiveWithoutRegistry(t *testing.T) {
	tm := NewTransportMetrics(nil)
	tm.TxFrames.Inc()
	tm.KnownPeers.Set(3)
	if tm.TxFrames.Value() != 1 || tm.KnownPeers.Value() != 3 {
		t.Error("unregistered transport metrics must still count")
	}
	hm := NewHostMetrics(nil)
	hm.Sent.Add(4)
	if hm.Sent.Value() != 4 {
		t.Error("unregistered host metrics must still count")
	}
}

func TestTransportMetricsRegistered(t *testing.T) {
	r := NewRegistry()
	tm := NewTransportMetrics(r)
	hm := NewHostMetrics(r)
	tm.RxFrames.Add(9)
	hm.InboxDepth.Set(2)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "vitis_transport_rx_frames_total 9\n") {
		t.Errorf("missing transport counter:\n%s", out)
	}
	if !strings.Contains(out, "vitis_host_inbox_depth 2\n") {
		t.Errorf("missing host gauge:\n%s", out)
	}
}

// TestParseTextRoundTrip: everything WritePrometheus renders — counters,
// gauges, func metrics, histogram buckets, sums and counts — parses back
// to the registry's own samples, value for value.
func TestParseTextRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "a counter").Add(41)
	r.Gauge("g", "").Set(-7)
	r.CounterFunc("cf_total", "a func counter", func() float64 { return 1e12 })
	r.GaugeFunc("gf", "a func gauge", func() float64 { return 0.1 })
	h := r.Histogram("h_seconds", "a histogram", 0.001, 0.5, 2)
	for _, v := range []float64{0.0004, 0.3, 0.3, 1.5, 40} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := r.Snapshot()
	if len(got) != len(want) {
		t.Errorf("parsed %d samples, registry holds %d", len(got), len(want))
	}
	for _, s := range want {
		if v, ok := got[s.Name]; !ok || v != s.Value {
			t.Errorf("sample %s = %v,%v after the round trip, want %v", s.Name, v, ok, s.Value)
		}
	}
}

// TestParseTextKeepsLabeledSamples: histogram bucket samples carry a
// {le=...} label and must survive parsing under their full name instead of
// being dropped.
func TestParseTextKeepsLabeledSamples(t *testing.T) {
	body := "# TYPE h histogram\n" +
		"h_bucket{le=\"0.5\"} 3\n" +
		"h_bucket{le=\"+Inf\"} 7\n" +
		"h_sum 2.5\n" +
		"h_count 7\n" +
		"\n" +
		"plain_total 11\n"
	m, err := ParseText(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if m[`h_bucket{le="0.5"}`] != 3 || m[`h_bucket{le="+Inf"}`] != 7 {
		t.Fatalf("labeled samples dropped: %v", m)
	}
	if m["h_sum"] != 2.5 || m["plain_total"] != 11 {
		t.Fatalf("plain samples mangled: %v", m)
	}
}

// TestParseTextRejectsMalformedLine: a line that is neither a comment nor
// "name value" is an error naming the line, not a silently missing sample.
func TestParseTextRejectsMalformedLine(t *testing.T) {
	for _, body := range []string{
		"ok_total 1\nbroken\n",
		"ok_total 1\nbad_total one\n",
		" 5\n",
	} {
		if m, err := ParseText(strings.NewReader(body)); err == nil {
			t.Errorf("ParseText(%q) = %v, want an error", body, m)
		}
	}
}
