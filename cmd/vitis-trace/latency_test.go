package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"vitis/internal/harness"
	"vitis/internal/telemetry"
)

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
	bin := harness.BuildT(t, t.TempDir())
	traceDir := t.TempDir()

	bs := harness.StartT(t, bin, "-role", "bootstrap", "-listen", "127.0.0.1:0", "-seed", "1", "-period-ms", "200")
	bsAddr := harness.LastField(bs.MustExpect(t, "listening on", 15*time.Second))

	var nodes []*harness.Proc
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
		p := harness.StartT(t, bin, args...)
		metricsAddrs = append(metricsAddrs, harness.LastField(p.MustExpect(t, "metrics listening on", 30*time.Second)))
		nodes = append(nodes, p)
	}
	for _, p := range nodes {
		p.MustExpect(t, "joined with", 60*time.Second)
	}

	// Wait out the publish window, then poll until the live histogram count
	// is stable (everything in flight delivered). agg sums the histogram
	// samples (bucket series, _sum, _count) over the nodes.
	time.Sleep(8 * time.Second)
	var agg map[string]float64
	err := harness.Settle(60*time.Second, 2*time.Second, 500*time.Millisecond, func() (float64, bool, error) {
		agg = make(map[string]float64)
		for _, addr := range metricsAddrs {
			m, err := harness.Scrape(addr)
			if err != nil {
				return 0, false, err
			}
			for name, v := range m {
				if strings.HasPrefix(name, "vitis_core_delivery_latency_seconds") {
					agg[name] += v
				}
			}
		}
		count := agg["vitis_core_delivery_latency_seconds_count"]
		return count, count > 0, nil
	})
	if err != nil {
		t.Fatalf("delivery count never stabilised: %v", err)
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
		p.Stop()
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
