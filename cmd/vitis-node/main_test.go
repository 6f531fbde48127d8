package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"vitis/internal/telemetry"
)

// proc wraps one vitis-node process under test, with its stdout scanned
// line by line.
type proc struct {
	cmd   *exec.Cmd
	lines chan string

	mu  sync.Mutex
	log []string
}

func startProc(t *testing.T, ctx context.Context, bin string, args ...string) *proc {
	t.Helper()
	cmd := exec.CommandContext(ctx, bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %v: %v", args, err)
	}
	p := &proc{cmd: cmd, lines: make(chan string, 4096)}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.log = append(p.log, line)
			p.mu.Unlock()
			select {
			case p.lines <- line:
			default:
			}
		}
		close(p.lines)
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return p
}

// expect waits for a stdout line containing substr and returns it.
func (p *proc) expect(t *testing.T, substr string, timeout time.Duration) string {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				t.Fatalf("process exited before printing %q; log:\n%s", substr, p.dump())
			}
			if strings.Contains(line, substr) {
				return line
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %q; log:\n%s", substr, p.dump())
		}
	}
}

func (p *proc) dump() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.log, "\n")
}

// countLines returns how many logged lines contain substr.
func (p *proc) countLines(substr string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, line := range p.log {
		if strings.Contains(line, substr) {
			n++
		}
	}
	return n
}

// buildNode compiles the vitis-node binary into a temp dir once per test.
func buildNode(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vitis-node")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// scrapeMetrics GETs the node's /metrics endpoint and parses every sample
// into a name → value map; a malformed exposition fails the test.
func scrapeMetrics(t *testing.T, addr string) map[string]float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics returned %d:\n%s", resp.StatusCode, body)
	}
	out, err := telemetry.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return out
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
	bin := buildNode(t)
	traceFile := filepath.Join(t.TempDir(), "pub.jsonl")
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	bs := startProc(t, ctx, bin, "-role", "bootstrap", "-listen", "127.0.0.1:0", "-seed", "1", "-period-ms", "100")
	line := bs.expect(t, "listening on", 10*time.Second)
	bsAddr := line[strings.LastIndex(line, " ")+1:]

	common := []string{"-listen", "127.0.0.1:0", "-bootstrap", bsAddr,
		"-subscribe", "news", "-period-ms", "100"}
	publisher := startProc(t, ctx, bin, append([]string{"-seed", "2", "-publish-rate", "5", "-trace", traceFile}, common...)...)
	subA := startProc(t, ctx, bin, append([]string{"-seed", "3", "-metrics-addr", "127.0.0.1:0"}, common...)...)
	subB := startProc(t, ctx, bin, append([]string{"-seed", "4"}, common...)...)

	// The publisher's own id appears in its startup line; subscribers must
	// deliver events stamped with it.
	pubLine := publisher.expect(t, "id=", 10*time.Second)
	pubID := strings.TrimPrefix(strings.Fields(pubLine)[0], "id=")
	mLine := subA.expect(t, "metrics listening on", 10*time.Second)
	metricsAddr := mLine[strings.LastIndex(mLine, " ")+1:]

	for _, p := range []*proc{publisher, subA, subB} {
		p.expect(t, "joined with", 30*time.Second)
	}
	wantEvent := fmt.Sprintf("event=%s", pubID)
	for i, p := range []*proc{publisher, subA, subB} {
		line := p.expect(t, "DELIVER", 45*time.Second)
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
	delivered := subA.countLines("DELIVER")
	m := scrapeMetrics(t, metricsAddr)
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
	if err := publisher.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	publisher.expect(t, "trace spans=", 10*time.Second)
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
	bin := buildNode(t)
	storeDir := filepath.Join(t.TempDir(), "events")
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	bs := startProc(t, ctx, bin, "-role", "bootstrap", "-listen", "127.0.0.1:0", "-seed", "1", "-period-ms", "100")
	line := bs.expect(t, "listening on", 10*time.Second)
	bsAddr := line[strings.LastIndex(line, " ")+1:]

	pub := startProc(t, ctx, bin, "-listen", "127.0.0.1:0", "-bootstrap", bsAddr,
		"-seed", "2", "-period-ms", "100", "-subscribe", "news",
		"-store", storeDir, "-metrics-addr", "127.0.0.1:0",
		"-publish-rate", "10", "-publish-for", "1s")
	pubLine := pub.expect(t, "id=", 10*time.Second)
	pubID := strings.TrimPrefix(strings.Fields(pubLine)[0], "id=")
	pub.expect(t, "store open dir=", 10*time.Second)
	mLine := pub.expect(t, "metrics listening on", 10*time.Second)
	metricsAddr := mLine[strings.LastIndex(mLine, " ")+1:]
	pub.expect(t, "joined with", 30*time.Second)
	pub.expect(t, "DELIVER", 30*time.Second)

	// Let the publish window close, so the late subscriber cannot receive
	// anything through live dissemination.
	time.Sleep(1500 * time.Millisecond)
	published := pub.countLines("DELIVER")
	if published == 0 {
		t.Fatal("publisher delivered nothing in its window")
	}

	// The store must have persisted the burst; /healthz reports it.
	m := scrapeMetrics(t, metricsAddr)
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
	late := startProc(t, ctx, bin, "-listen", "127.0.0.1:0", "-bootstrap", bsAddr,
		"-seed", "5", "-period-ms", "100", "-subscribe", "news")
	late.expect(t, "joined with", 30*time.Second)
	caught := late.expect(t, "DELIVER", 30*time.Second)
	if !strings.Contains(caught, "event="+pubID) {
		t.Errorf("late subscriber delivered %q, want an event from %s", caught, pubID)
	}

	// SIGTERM flushes and closes the store on the way out.
	if err := pub.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	pub.expect(t, "store closed records=", 10*time.Second)
	done := make(chan error, 1)
	go func() { done <- pub.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("publisher exited with %v, want clean exit; log:\n%s", err, pub.dump())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("publisher did not exit after SIGTERM; log:\n%s", pub.dump())
	}
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
	bin := buildNode(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	p := startProc(t, ctx, bin, "-role", "bootstrap", "-listen", "127.0.0.1:0",
		"-seed", "1", "-period-ms", "100", "-metrics-addr", "127.0.0.1:0")
	mLine := p.expect(t, "metrics listening on", 10*time.Second)
	metricsAddr := mLine[strings.LastIndex(mLine, " ")+1:]

	// The endpoint serves before and, crucially, is gone after shutdown.
	scrapeMetrics(t, metricsAddr)

	if err := p.cmd.Process.Signal(syscall.SIGUSR1); err != nil {
		t.Fatal(err)
	}
	p.expect(t, "METRIC vitis_engine_events_total", 10*time.Second)

	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("process exited with %v, want clean exit; log:\n%s", err, p.dump())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("process did not exit within grace period after SIGTERM; log:\n%s", p.dump())
	}
	// The final dump ran on the way out.
	if p.countLines("METRIC vitis_host_sent_total") == 0 {
		t.Errorf("no final metrics dump after SIGTERM; log:\n%s", p.dump())
	}
	if _, err := http.Get("http://" + metricsAddr + "/metrics"); err == nil {
		t.Error("metrics endpoint still serving after shutdown")
	}
}
