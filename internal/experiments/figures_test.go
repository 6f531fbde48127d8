package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"vitis/internal/tablefmt"
)

// Figure drivers run at Tiny scale; these tests assert structure and the
// headline relationships, and pin every rendered table byte for byte
// against testdata/tiny/<name>.golden.

var update = flag.Bool("update", false, "rewrite the Tiny table goldens under testdata/tiny")

// checkTiny compares a driver's rendered Tiny table with its golden, or
// rewrites the golden under -update. The goldens are produced on amd64:
// arm64 may fuse multiply-adds and move the last printed digit, so other
// architectures skip the comparison rather than fail it.
func checkTiny(t *testing.T, name string, tab *tablefmt.Table) {
	t.Helper()
	path := filepath.Join("testdata", "tiny", name+".golden")
	got := tab.String()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if runtime.GOARCH != "amd64" {
		t.Logf("golden %s not compared on %s", path, runtime.GOARCH)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from its golden; got:\n%s\nwant:\n%s\n(run with -update only for an intended change)", path, got, want)
	}
}

func TestFig4Friends(t *testing.T) {
	tab, err := Fig4Friends(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkTiny(t, "fig4", tab)
	// 7 friend counts x (3 Vitis patterns + 1 RVR row).
	if len(tab.Rows) != 7*4 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	out := tab.String()
	if !strings.Contains(out, "Vitis") || !strings.Contains(out, "RVR") {
		t.Error("missing systems in table")
	}
}

func TestFig5OverheadDist(t *testing.T) {
	tab, err := Fig5OverheadDist(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkTiny(t, "fig5", tab)
	if len(tab.Rows) != 10 {
		t.Fatalf("got %d rows, want 10 bins", len(tab.Rows))
	}
	if len(tab.Columns) != 5 {
		t.Fatalf("got %d columns", len(tab.Columns))
	}
	// Each variant's fractions must sum to ~1.
	for col := 1; col < 5; col++ {
		var sum float64
		for _, row := range tab.Rows {
			var v float64
			if _, err := sscan(row[col], &v); err != nil {
				t.Fatalf("bad cell %q: %v", row[col], err)
			}
			sum += v
		}
		if sum < 0.95 || sum > 1.05 {
			t.Errorf("column %d fractions sum to %g", col, sum)
		}
	}
}

func TestFig6TableSize(t *testing.T) {
	tab, err := Fig6TableSize(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkTiny(t, "fig6", tab)
	if len(tab.Rows) != 5*4 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
}

func TestFig7PubRate(t *testing.T) {
	tab, err := Fig7PubRate(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkTiny(t, "fig7", tab)
	if len(tab.Rows) != 5*4 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
}

func TestFig8TwitterDegrees(t *testing.T) {
	tab, err := Fig8TwitterDegrees(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkTiny(t, "fig8", tab)
	if len(tab.Rows) == 0 {
		t.Fatal("empty degree table")
	}
	if len(tab.Notes) == 0 || !strings.Contains(tab.Notes[0], "alpha") {
		t.Error("missing fitted alpha note")
	}
}

func TestFig9TwitterSummary(t *testing.T) {
	tab, err := Fig9TwitterSummary(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkTiny(t, "fig9", tab)
	if len(tab.Rows) != 7 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
}

func TestFig10Twitter(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run driver")
	}
	tab, err := Fig10Twitter(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkTiny(t, "fig10", tab)
	if len(tab.Rows) != 5*3 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	// OPT overhead must be 0 in every row.
	for _, row := range tab.Rows {
		if row[1] == "OPT" && row[3] != "0.0%" {
			t.Errorf("OPT overhead %q, want 0.0%%", row[3])
		}
	}
}

func TestFig11OPTDegree(t *testing.T) {
	tab, err := Fig11OPTDegree(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkTiny(t, "fig11", tab)
	if len(tab.Rows) != 10 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	if len(tab.Notes) < 3 {
		t.Error("missing notes")
	}
}

func TestFig12Churn(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run driver")
	}
	tab, err := Fig12Churn(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkTiny(t, "fig12", tab)
	if len(tab.Rows) == 0 {
		t.Fatal("empty churn table")
	}
	if len(tab.Columns) != 8 {
		t.Fatalf("got %d columns", len(tab.Columns))
	}
}

func TestDelayScalingAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run driver")
	}
	sc := Tiny()
	tab, err := DelayScaling(sc)
	if err != nil {
		t.Fatal(err)
	}
	checkTiny(t, "delay-scaling", tab)
	if len(tab.Rows) != 4 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
}

func TestGatewayThresholdAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run driver")
	}
	tab, err := GatewayThreshold(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkTiny(t, "gateway-threshold", tab)
	if len(tab.Rows) != 5 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
}

func TestRateAwarenessAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run driver")
	}
	tab, err := RateAwareness(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkTiny(t, "rate-awareness", tab)
	if len(tab.Rows) != 2 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
}

// sscan parses a float cell.
func sscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

func TestProximityAwarenessAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run driver")
	}
	tab, err := ProximityAwareness(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkTiny(t, "proximity-awareness", tab)
	if len(tab.Rows) != 3 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	// Link latency at weight 0.6 should not exceed weight 0 (the whole
	// point of the extension).
	var lat0, lat6 float64
	if _, err := sscan(tab.Rows[0][4], &lat0); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(tab.Rows[2][4], &lat6); err != nil {
		t.Fatal(err)
	}
	if lat6 > lat0*1.05 {
		t.Errorf("proximity weighting increased link latency: %.1f -> %.1f", lat0, lat6)
	}
}

func TestClusterAnalysisAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run driver")
	}
	tab, err := ClusterAnalysis(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkTiny(t, "cluster-analysis", tab)
	if len(tab.Rows) != 6 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	// For each pattern, clusters/topic with 12 friends must be <= with 4.
	for i := 0; i < 6; i += 2 {
		var few, many float64
		if _, err := sscan(tab.Rows[i][2], &few); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(tab.Rows[i+1][2], &many); err != nil {
			t.Fatal(err)
		}
		if many > few*1.2 {
			t.Errorf("row %d: more friends increased clusters/topic %.2f -> %.2f", i, few, many)
		}
	}
	if len(patternsForClusterTest()) != 3 {
		t.Error("pattern list changed")
	}
}

func TestControlTrafficAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run driver")
	}
	tab, err := ControlTraffic(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkTiny(t, "control-traffic", tab)
	if len(tab.Rows) != 3 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	// No "other" messages should exist (all types classified); total ==
	// sum of the cells within rounding.
	for _, row := range tab.Rows {
		var sum, total float64
		for col := 1; col <= 5; col++ {
			var v float64
			if _, err := sscan(row[col], &v); err != nil {
				t.Fatal(err)
			}
			sum += v
		}
		if _, err := sscan(row[6], &total); err != nil {
			t.Fatal(err)
		}
		if diff := total - sum; diff > 0.05 || diff < -0.05 {
			t.Errorf("%s: unclassified traffic: total %.2f vs sum %.2f", row[0], total, sum)
		}
	}
}

func TestLossResilienceAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run driver")
	}
	tab, err := LossResilience(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkTiny(t, "loss-resilience", tab)
	if len(tab.Rows) != 8 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	// At zero loss both systems must be ~perfect; at 10% loss Vitis should
	// retain a high hit ratio.
	var zero, lossy float64
	if _, err := sscan(strings.TrimSuffix(tab.Rows[0][2], "%"), &zero); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(strings.TrimSuffix(tab.Rows[6][2], "%"), &lossy); err != nil {
		t.Fatal(err)
	}
	if zero < 99 {
		t.Errorf("lossless Vitis hit %.1f%%", zero)
	}
	if lossy < 80 {
		t.Errorf("Vitis hit %.1f%% at 10%% loss; gossip redundancy failed", lossy)
	}
}
