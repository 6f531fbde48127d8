package harness

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"
)

// helperEnv makes the test binary act as a child process instead of running
// tests; its value names the behaviour.
const helperEnv = "HARNESS_TEST_CHILD"

func TestMain(m *testing.M) {
	switch os.Getenv(helperEnv) {
	case "":
		os.Exit(m.Run())
	case "serve":
		// Like vitis-node: announce an address, run until SIGTERM, and print
		// a last burst of lines on the way out.
		term := make(chan os.Signal, 1)
		signal.Notify(term, syscall.SIGTERM)
		fmt.Println("id=1 listening on 127.0.0.1:7000")
		<-term
		for i := 0; i < 100; i++ {
			fmt.Printf("METRIC m%d %d\n", i, i)
		}
		fmt.Println("bye")
		os.Exit(0)
	case "crash":
		fmt.Println("starting")
		os.Exit(3)
	}
}

func startChild(t *testing.T, mode string) *Proc {
	t.Helper()
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(helperEnv, mode)
	return StartT(t, bin)
}

// TestExpectAndStop drives one child through its life: the announced
// address is read off its output, a line that never comes times out, Stop
// returns nil on a clean exit, and the lines printed after SIGTERM are all
// still there, to Expect and to Count.
func TestExpectAndStop(t *testing.T) {
	p := startChild(t, "serve")
	line := p.MustExpect(t, "listening on", 10*time.Second)
	if got := LastField(line); got != "127.0.0.1:7000" {
		t.Fatalf("LastField(%q) = %q", line, got)
	}
	if _, err := p.Expect("never printed", 50*time.Millisecond); err == nil || !strings.Contains(err.Error(), "no \"never printed\" within") {
		t.Fatalf("Expect = %v, want a timeout", err)
	}
	if err := p.Stop(); err != nil {
		t.Fatalf("Stop after a clean exit = %v, want nil", err)
	}
	p.MustExpect(t, "bye", time.Second)
	if n := p.Count("METRIC "); n != 100 {
		t.Fatalf("Count(METRIC) = %d after exit, want all 100 lines", n)
	}
	if err := p.Stop(); err != nil {
		t.Fatalf("second Stop = %v, want the first call's nil", err)
	}
}

// TestExpectReportsEarlyExit: a process that dies fails Expect at once with
// its log, not after the timeout, and Stop reports the exit status.
func TestExpectReportsEarlyExit(t *testing.T) {
	p := startChild(t, "crash")
	start := time.Now()
	_, err := p.Expect("listening on", time.Minute)
	if err == nil || !strings.Contains(err.Error(), "exited before") || !strings.Contains(err.Error(), "starting") {
		t.Fatalf("Expect = %v, want an early-exit error carrying the log", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("Expect took %s to notice the exit", d)
	}
	var exit *exec.ExitError
	if err := p.Stop(); !errors.As(err, &exit) || exit.ExitCode() != 3 {
		t.Fatalf("Stop = %v, want exit status 3", err)
	}
}

// TestSettle: the level must hold still for stableFor while ready; a level
// that keeps moving, or never gets ready, times out; a sample error ends
// the wait at once.
func TestSettle(t *testing.T) {
	levels := []float64{1, 2, 3, 3, 3, 3, 3, 3, 3, 3}
	calls := 0
	err := Settle(time.Minute, 20*time.Millisecond, 5*time.Millisecond, func() (float64, bool, error) {
		v := levels[min(calls, len(levels)-1)]
		calls++
		return v, true, nil
	})
	if err != nil {
		t.Fatalf("Settle = %v", err)
	}
	if calls < 4 {
		t.Fatalf("settled after %d samples, before the level stopped moving", calls)
	}

	moving := 0.0
	if err := Settle(50*time.Millisecond, 20*time.Millisecond, 5*time.Millisecond, func() (float64, bool, error) {
		moving++
		return moving, true, nil
	}); err == nil {
		t.Fatal("a level that never stops moving settled")
	}
	if err := Settle(50*time.Millisecond, 0, 5*time.Millisecond, func() (float64, bool, error) {
		return 1, false, nil
	}); err == nil {
		t.Fatal("a sample that is never ready settled")
	}
	boom := errors.New("scrape failed")
	if err := Settle(time.Minute, time.Minute, time.Millisecond, func() (float64, bool, error) {
		return 0, false, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("Settle = %v, want the sample's error", err)
	}
}

func TestScrape(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/metrics":
			fmt.Fprint(w, "# TYPE vitis_core_deliveries_total counter\nvitis_core_deliveries_total 42\n")
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	m, err := Scrape(addr)
	if err != nil {
		t.Fatal(err)
	}
	if got := m["vitis_core_deliveries_total"]; got != 42 {
		t.Fatalf("vitis_core_deliveries_total = %v, want 42", got)
	}

	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "vitis_core_deliveries_total not-a-number\n")
	}))
	defer bad.Close()
	if _, err := Scrape(strings.TrimPrefix(bad.URL, "http://")); err == nil {
		t.Fatal("a malformed exposition scraped without error")
	}
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer down.Close()
	if _, err := Scrape(strings.TrimPrefix(down.URL, "http://")); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("Scrape of a 503 = %v, want an error naming the status", err)
	}
}
