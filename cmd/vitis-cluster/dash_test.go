package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vitis/internal/telemetry"
	"vitis/internal/telemetry/alerts"
)

var updateGolden = flag.Bool("update", false, "rewrite the dashboard golden files")

// fixtureMonitor replays the canned 2-node scrape fixtures into a fresh
// monitor at a fixed 1s cadence — the deterministic input behind the golden
// renders.
func fixtureMonitor(t *testing.T) *monitor {
	t.Helper()
	mon := newMonitor(2, 1000, false, io.Discard)
	for i := 1; i <= 3; i++ {
		body, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("scrape-%d.txt", i)))
		if err != nil {
			t.Fatal(err)
		}
		m, err := telemetry.ParseText(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		// Two nodes reporting identical samples: aggregation doubles them.
		mon.observe(int64(i)*1000, []map[string]float64{m, m})
	}
	return mon
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden; got:\n%s\nwant:\n%s\n(run with -update to accept)", name, got, want)
	}
}

// TestDashGoldenRender pins the terminal dashboard byte for byte: metric
// rows with sparkline trends, the latency percentile line, and the alert
// summary for a healthy cluster.
func TestDashGoldenRender(t *testing.T) {
	mon := fixtureMonitor(t)
	var buf bytes.Buffer
	mon.render(&buf)
	checkGolden(t, "dash.golden", buf.Bytes())
}

// TestAPISeriesGolden pins the /api/series JSON document served by
// -dash-addr, fetched through the real HTTP mux.
func TestAPISeriesGolden(t *testing.T) {
	mon := fixtureMonitor(t)
	srv := httptest.NewServer(mon.dashMux())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/api/series")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	checkGolden(t, "series.golden", body)
}

// TestDashHTMLServes smoke-checks the HTML view: self-refreshing page
// embedding the rendered dashboard.
func TestDashHTMLServes(t *testing.T) {
	mon := fixtureMonitor(t)
	srv := httptest.NewServer(mon.dashMux())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, frag := range []string{"http-equiv=\"refresh\"", "vitis cluster", "delivery latency", "/api/series"} {
		if !strings.Contains(string(body), frag) {
			t.Errorf("HTML page missing %q", frag)
		}
	}
}

// TestMonitorAlertLifecycle drives a sick cluster through the monitor and
// checks a sustained breach fires, shows up in the dashboard render, and is
// remembered by firedEver (the -alerts-gate verdict).
func TestMonitorAlertLifecycle(t *testing.T) {
	mon := newMonitor(2, 1000, false, io.Discard)
	for i := int64(1); i <= 8; i++ {
		mon.observe(i*1000, []map[string]float64{
			{"vitis_node_joined": 1, "vitis_transport_tx_dropped_total": float64(i * 5)},
			{"vitis_node_joined": 0}, // the second node never joins
		})
	}
	var buf bytes.Buffer
	mon.render(&buf)
	if !strings.Contains(buf.String(), "FIRING") {
		t.Fatalf("dashboard does not show firing alerts:\n%s", buf.String())
	}
	fired := mon.firedEver()
	want := map[string]bool{"nodes-not-joined": false, "transport-drops": false}
	for _, name := range fired {
		if _, ok := want[name]; ok {
			want[name] = true
		}
	}
	for name, hit := range want {
		if !hit {
			t.Errorf("expected %s in firedEver, got %v", name, fired)
		}
	}
	status, scrapes, _, lastMs := mon.snapshot()
	if scrapes != 8 || lastMs != 8000 {
		t.Fatalf("snapshot = %d scrapes, lastMs %d", scrapes, lastMs)
	}
	firingNow := 0
	for _, a := range status {
		if a.State == alerts.Firing {
			firingNow++
		}
	}
	if firingNow < 2 {
		t.Fatalf("want both rules firing in the status snapshot, got %d", firingNow)
	}
}
