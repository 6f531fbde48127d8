package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"vitis/internal/harness"
	"vitis/internal/telemetry"
)

// scrape reads a node's /metrics; a failure ends the test.
func scrape(t *testing.T, addr string) map[string]float64 {
	t.Helper()
	m, err := harness.Scrape(addr)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRealProcessCluster is the end-to-end acceptance test of the wire
// stack: it builds the vitis-node binary, launches a bootstrap server and
// three node processes talking real UDP on the loopback interface, has all
// three subscribe to one topic with one of them publishing, and requires
// every subscriber to deliver the publisher's events. One subscriber runs
// with -metrics-addr so the test can scrape /metrics and cross-check the
// exported counters against the DELIVER lines; the publisher runs with
// -trace so the test can verify the span file after a clean SIGTERM.
func TestRealProcessCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process test in -short mode")
	}
	bin := harness.BuildT(t, t.TempDir())
	traceFile := filepath.Join(t.TempDir(), "pub.jsonl")

	bs := harness.StartT(t, bin, "-role", "bootstrap", "-listen", "127.0.0.1:0", "-seed", "1", "-period-ms", "100")
	bsAddr := harness.LastField(bs.MustExpect(t, "listening on", 10*time.Second))

	common := []string{"-listen", "127.0.0.1:0", "-bootstrap", bsAddr,
		"-subscribe", "news", "-period-ms", "100"}
	publisher := harness.StartT(t, bin, append([]string{"-seed", "2", "-publish-rate", "5", "-trace", traceFile}, common...)...)
	subA := harness.StartT(t, bin, append([]string{"-seed", "3", "-metrics-addr", "127.0.0.1:0"}, common...)...)
	subB := harness.StartT(t, bin, append([]string{"-seed", "4"}, common...)...)

	// The publisher's own id appears in its startup line; subscribers must
	// deliver events stamped with it.
	pubLine := publisher.MustExpect(t, "id=", 10*time.Second)
	pubID := strings.TrimPrefix(strings.Fields(pubLine)[0], "id=")
	metricsAddr := harness.LastField(subA.MustExpect(t, "metrics listening on", 10*time.Second))

	for _, p := range []*harness.Proc{publisher, subA, subB} {
		p.MustExpect(t, "joined with", 30*time.Second)
	}
	wantEvent := fmt.Sprintf("event=%s", pubID)
	for i, p := range []*harness.Proc{publisher, subA, subB} {
		line := p.MustExpect(t, "DELIVER", 45*time.Second)
		if !strings.Contains(line, wantEvent) {
			t.Errorf("node %d delivered %q, want an event from publisher %s", i, line, pubID)
		}
	}

	// /healthz flips to 200 once joined.
	resp, err := http.Get("http://" + metricsAddr + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d after join, want 200", resp.StatusCode)
	}

	// The exported counters must be consistent with the node's own DELIVER
	// lines: count first, then scrape — counters only grow.
	delivered := subA.Count("DELIVER")
	m := scrape(t, metricsAddr)
	if got := m["vitis_core_deliveries_total"]; got < float64(delivered) {
		t.Errorf("vitis_core_deliveries_total = %v, want >= %d DELIVER lines", got, delivered)
	}
	if got := m["vitis_transport_tx_frames_total"]; got <= 0 {
		t.Errorf("vitis_transport_tx_frames_total = %v, want > 0", got)
	}
	if got := m["vitis_core_routing_table_size"]; got <= 0 {
		t.Errorf("vitis_core_routing_table_size = %v, want > 0", got)
	}
	if got := m["vitis_node_joined"]; got != 1 {
		t.Errorf("vitis_node_joined = %v, want 1", got)
	}

	// SIGTERM the publisher: it must flush its span file on the way out, and
	// the file must parse back into a trace containing its published events.
	if err := publisher.Stop(); err != nil {
		t.Fatalf("publisher: %v; log:\n%s", err, publisher.Log())
	}
	publisher.MustExpect(t, "trace spans=", time.Second)
	f, err := os.Open(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := telemetry.ReadSpans(f)
	if err != nil {
		t.Fatalf("reading span file: %v", err)
	}
	trace := telemetry.Analyze(spans)
	if len(trace.Events) == 0 {
		t.Fatalf("span file has %d spans but no reconstructable events", len(spans))
	}
	published := 0
	for _, et := range trace.Events {
		if fmt.Sprintf("%016x", et.Key.Pub) == pubID {
			published++
		}
	}
	if published == 0 {
		t.Errorf("trace has %d events, none published by %s", len(trace.Events), pubID)
	}
}

// TestStoreBackedCatchUp exercises the durable-store path end to end with
// real processes: a publisher running with -store persists a finite burst
// of events, a subscriber that starts only after the burst is over must
// still deliver them by walking the publisher's store, /healthz reports the
// store state, and SIGTERM closes the store cleanly.
func TestStoreBackedCatchUp(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process test in -short mode")
	}
	bin := harness.BuildT(t, t.TempDir())
	storeDir := filepath.Join(t.TempDir(), "events")

	bs := harness.StartT(t, bin, "-role", "bootstrap", "-listen", "127.0.0.1:0", "-seed", "1", "-period-ms", "100")
	bsAddr := harness.LastField(bs.MustExpect(t, "listening on", 10*time.Second))

	pub := harness.StartT(t, bin, "-listen", "127.0.0.1:0", "-bootstrap", bsAddr,
		"-seed", "2", "-period-ms", "100", "-subscribe", "news",
		"-store", storeDir, "-metrics-addr", "127.0.0.1:0",
		"-publish-rate", "10", "-publish-for", "1s")
	pubLine := pub.MustExpect(t, "id=", 10*time.Second)
	pubID := strings.TrimPrefix(strings.Fields(pubLine)[0], "id=")
	pub.MustExpect(t, "store open dir=", 10*time.Second)
	metricsAddr := harness.LastField(pub.MustExpect(t, "metrics listening on", 10*time.Second))
	pub.MustExpect(t, "joined with", 30*time.Second)
	pub.MustExpect(t, "DELIVER", 30*time.Second)

	// Let the publish window close, so the late subscriber cannot receive
	// anything through live dissemination.
	time.Sleep(1500 * time.Millisecond)
	published := pub.Count("DELIVER")
	if published == 0 {
		t.Fatal("publisher delivered nothing in its window")
	}

	// The store must have persisted the burst; /healthz reports it.
	m := scrape(t, metricsAddr)
	if got := m["vitis_store_appends_total"]; got < float64(published) {
		t.Errorf("vitis_store_appends_total = %v, want >= %d", got, published)
	}
	resp, err := http.Get("http://" + metricsAddr + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "store records=") {
		t.Errorf("/healthz without store state:\n%s", body)
	}

	// A subscriber born after the burst backfills the history via catch-up.
	late := harness.StartT(t, bin, "-listen", "127.0.0.1:0", "-bootstrap", bsAddr,
		"-seed", "5", "-period-ms", "100", "-subscribe", "news")
	late.MustExpect(t, "joined with", 30*time.Second)
	caught := late.MustExpect(t, "DELIVER", 30*time.Second)
	if !strings.Contains(caught, "event="+pubID) {
		t.Errorf("late subscriber delivered %q, want an event from %s", caught, pubID)
	}

	// SIGTERM flushes and closes the store on the way out.
	if err := pub.Stop(); err != nil {
		t.Errorf("publisher: %v, want a clean exit; log:\n%s", err, pub.Log())
	}
	pub.MustExpect(t, "store closed records=", time.Second)
	// The directory holds at least one real segment.
	segs, err := filepath.Glob(filepath.Join(storeDir, "events-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Errorf("no store segments on disk after shutdown (err=%v)", err)
	}
}

// TestGracefulShutdown verifies that SIGUSR1 dumps the registry while the
// node runs and that SIGTERM drains everything — the HTTP listener, the
// signal loop and the final metrics dump — within the grace period, with a
// zero exit status.
func TestGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-process test in -short mode")
	}
	bin := harness.BuildT(t, t.TempDir())

	p := harness.StartT(t, bin, "-role", "bootstrap", "-listen", "127.0.0.1:0",
		"-seed", "1", "-period-ms", "100", "-metrics-addr", "127.0.0.1:0")
	metricsAddr := harness.LastField(p.MustExpect(t, "metrics listening on", 10*time.Second))

	// The endpoint serves before and, crucially, is gone after shutdown.
	scrape(t, metricsAddr)

	if err := p.Signal(syscall.SIGUSR1); err != nil {
		t.Fatal(err)
	}
	p.MustExpect(t, "METRIC vitis_engine_events_total", 10*time.Second)

	// Stop allows the grace period and reports anything but a clean exit.
	if err := p.Stop(); err != nil {
		t.Errorf("%v, want a clean exit within the grace period; log:\n%s", err, p.Log())
	}
	// The final dump ran on the way out, after the SIGUSR1 one.
	if n := p.Count("METRIC vitis_host_sent_total"); n != 2 {
		t.Errorf("%d metrics dumps, want one on SIGUSR1 and a final one on SIGTERM; log:\n%s", n, p.Log())
	}
	if _, err := http.Get("http://" + metricsAddr + "/metrics"); err == nil {
		t.Error("metrics endpoint still serving after shutdown")
	}
}
