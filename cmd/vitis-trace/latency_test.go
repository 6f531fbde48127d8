package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"vitis/internal/telemetry"
)

// tproc is one child process with line-scanned stdout, just enough to drive
// the cross-check cluster below.
type tproc struct {
	cmd   *exec.Cmd
	lines chan string
}

func startTProc(t *testing.T, bin string, args ...string) *tproc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	p := &tproc{cmd: cmd, lines: make(chan string, 4096)}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case p.lines <- sc.Text():
			default:
			}
		}
		close(p.lines)
	}()
	t.Cleanup(p.stop)
	return p
}

func (p *tproc) expect(t *testing.T, substr string, timeout time.Duration) string {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				t.Fatalf("process exited before printing %q", substr)
			}
			if strings.Contains(line, substr) {
				return line
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %q", substr)
		}
	}
}

// stop SIGTERMs the process (flushing its trace file) and waits for exit.
func (p *tproc) stop() {
	if p.cmd.Process == nil {
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

// scrapeLatency fetches one node's /metrics and returns the delivery-latency
// histogram samples (bucket series, _sum, _count).
func scrapeLatency(addr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	all, err := telemetry.ParseText(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for name, v := range all {
		if strings.HasPrefix(name, "vitis_core_delivery_latency_seconds") {
			out[name] = v
		}
	}
	return out, nil
}

// boundsBetween counts how many live-histogram bucket boundaries lie
// strictly between a and b — the agreement metric for the cross-check.
func boundsBetween(a, b float64) int {
	lo, hi := math.Min(a, b), math.Max(a, b)
	n := 0
	for _, bd := range telemetry.DeliveryLatencyBounds {
		if bd > lo && bd < hi {
			n++
		}
	}
	return n
}

// TestSpansLatencyMatchesLiveHistogram runs a real 3-node cluster with
// tracing on, then cross-checks the live vitis_core_delivery_latency_seconds
// histogram (scraped from /metrics and reconstructed through the collector)
// against the offline percentiles vitis-trace computes from the merged span
// files. Both views quantize with the same buckets, so they must agree to
// within one bucket boundary.
func TestSpansLatencyMatchesLiveHistogram(t *testing.T) {
	if testing.Short() {
		t.Skip("real-process cluster in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "vitis-node")
	if out, err := exec.Command("go", "build", "-o", bin, "vitis/cmd/vitis-node").CombinedOutput(); err != nil {
		t.Fatalf("building vitis-node: %v\n%s", err, out)
	}
	traceDir := t.TempDir()

	bs := startTProc(t, bin, "-role", "bootstrap", "-listen", "127.0.0.1:0", "-seed", "1", "-period-ms", "200")
	line := bs.expect(t, "listening on", 15*time.Second)
	bsAddr := line[strings.LastIndex(line, " ")+1:]

	var nodes []*tproc
	var metricsAddrs []string
	var traceFiles []string
	for i := 0; i < 3; i++ {
		tf := filepath.Join(traceDir, fmt.Sprintf("trace-%d.jsonl", i))
		traceFiles = append(traceFiles, tf)
		args := []string{
			"-listen", "127.0.0.1:0", "-bootstrap", bsAddr, "-quiet",
			"-seed", strconv.Itoa(i + 2), "-period-ms", "200",
			"-metrics-addr", "127.0.0.1:0", "-trace", tf,
			"-subscribe", "news",
		}
		if i == 0 {
			args = append(args, "-publish", "news=5", "-publish-delay", "2s", "-publish-for", "5s")
		}
		p := startTProc(t, bin, args...)
		line := p.expect(t, "metrics listening on", 30*time.Second)
		metricsAddrs = append(metricsAddrs, line[strings.LastIndex(line, " ")+1:])
		nodes = append(nodes, p)
	}
	for _, p := range nodes {
		p.expect(t, "joined with", 60*time.Second)
	}

	// Wait out the publish window, then poll until the live histogram count
	// is stable (everything in flight delivered).
	time.Sleep(8 * time.Second)
	agg := make(map[string]float64)
	lastCount, stableSince := -1.0, time.Now()
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur := make(map[string]float64)
		for _, addr := range metricsAddrs {
			m, err := scrapeLatency(addr)
			if err != nil {
				t.Fatalf("scrape %s: %v", addr, err)
			}
			for k, v := range m {
				cur[k] += v
			}
		}
		count := cur["vitis_core_delivery_latency_seconds_count"]
		if count != lastCount {
			lastCount, stableSince = count, time.Now()
		} else if count > 0 && time.Since(stableSince) >= 2*time.Second {
			agg = cur
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivery count never stabilised (count=%v)", count)
		}
		time.Sleep(500 * time.Millisecond)
	}

	col := telemetry.NewCollector(4)
	for name, v := range agg {
		col.Record(name, 1000, v)
	}
	liveP50 := col.Quantile("vitis_core_delivery_latency_seconds", 0.5)
	liveP99 := col.Quantile("vitis_core_delivery_latency_seconds", 0.99)
	liveCount := agg["vitis_core_delivery_latency_seconds_count"]

	// Stop the nodes so their tracers flush, then reconstruct offline.
	for _, p := range nodes {
		p.stop()
	}
	var merged bytes.Buffer
	for _, tf := range traceFiles {
		b, err := os.ReadFile(tf)
		if err != nil {
			t.Fatal(err)
		}
		merged.Write(b)
	}
	spans, err := telemetry.ReadSpans(bytes.NewReader(merged.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	lats := spanLatencies(spans)
	if len(lats) == 0 {
		t.Fatal("no publish→deliver latencies reconstructed from the trace")
	}
	h := telemetry.NewHistogram(telemetry.DeliveryLatencyBounds...)
	for _, v := range lats {
		h.Observe(v)
	}
	offP50, offP99 := h.Quantile(0.5), h.Quantile(0.99)

	t.Logf("live: count=%v p50=%v p99=%v; offline: count=%d p50=%v p99=%v",
		liveCount, liveP50, liveP99, len(lats), offP50, offP99)
	if math.IsNaN(liveP50) || liveCount == 0 {
		t.Fatal("live histogram is empty — latency instrumentation not wired")
	}
	if d := math.Abs(float64(len(lats)) - liveCount); d > math.Max(2, 0.05*liveCount) {
		t.Fatalf("delivery counts diverge: live %v vs offline %d", liveCount, len(lats))
	}
	if n := boundsBetween(liveP50, offP50); n > 1 {
		t.Fatalf("p50 disagrees by %d bucket boundaries: live %v vs offline %v", n, liveP50, offP50)
	}
	if n := boundsBetween(liveP99, offP99); n > 1 {
		t.Fatalf("p99 disagrees by %d bucket boundaries: live %v vs offline %v", n, liveP99, offP99)
	}

	// The CLI view reports the same reconstruction.
	var out bytes.Buffer
	if err := runSpans(bytes.NewReader(merged.Bytes()), &out, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "latency    p50=") {
		t.Errorf("spans subcommand did not report latency percentiles:\n%s",
			out.String()[:min(600, out.Len())])
	}
}
