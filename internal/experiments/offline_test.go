package experiments

import (
	"strings"
	"testing"
)

// TestOfflineCatchUp runs the offline-subscriber figure at Tiny scale and
// checks the headline relationship: without catch-up the offline cohort's
// completeness collapses, with catch-up it must be restored to ~100%.
func TestOfflineCatchUp(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run driver")
	}
	tab, err := OfflineCatchUp(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkTiny(t, "offline-catchup", tab)
	// 3 offline fractions x {catch-up off, on}.
	if len(tab.Rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(tab.Rows))
	}
	for i := 0; i < len(tab.Rows); i += 2 {
		off, on := tab.Rows[i], tab.Rows[i+1]
		var offPct, onPct float64
		if _, err := sscan(strings.TrimSuffix(off[3], "%"), &offPct); err != nil {
			t.Fatalf("bad cell %q: %v", off[3], err)
		}
		if _, err := sscan(strings.TrimSuffix(on[3], "%"), &onPct); err != nil {
			t.Fatalf("bad cell %q: %v", on[3], err)
		}
		if offPct > 50 {
			t.Errorf("%s offline: baseline cohort completeness %.1f%% — offline nodes received live traffic", off[0], offPct)
		}
		if onPct < 99.9 {
			t.Errorf("%s offline: catch-up cohort completeness %.1f%%, want ~100%%", on[0], onPct)
		}
		if off[4] != "0" {
			t.Errorf("%s offline: baseline reports %s catch-up events, want 0", off[0], off[4])
		}
		if on[4] == "0" || on[5] == "0.0" {
			t.Errorf("%s offline: catch-up row served nothing (events=%s, KiB=%s)", on[0], on[4], on[5])
		}
	}
}
