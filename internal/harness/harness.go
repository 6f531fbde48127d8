// Package harness runs vitis-node processes and watches them from the
// outside. Build compiles the binary, Start launches one process with its
// stdout scanned line by line, Expect waits for a line, Stop ends the
// process with SIGTERM, Scrape reads a node's /metrics, and Settle polls a
// cluster-wide counter until it goes quiet. vitis-cluster runs its clusters
// on these five, and the process tests of vitis-node and vitis-trace drive
// their small clusters with the same code.
package harness

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"vitis/internal/telemetry"
)

const (
	// lineBuffer is how many lines wait for Expect. A node's startup and
	// join lines sit here while the caller starts the rest of the cluster;
	// once it is full, newer lines are dropped (Log and Count still see
	// them).
	lineBuffer    = 4096
	logKeep       = 1000             // output lines kept per process for Log and Count
	stopGrace     = 10 * time.Second // SIGTERM to SIGKILL
	scrapeTimeout = 5 * time.Second  // one /metrics fetch
)

// Build compiles vitis-node into dir and returns the binary's path.
func Build(dir string) (string, error) {
	bin := filepath.Join(dir, "vitis-node")
	if out, err := exec.Command("go", "build", "-o", bin, "vitis/cmd/vitis-node").CombinedOutput(); err != nil {
		return "", fmt.Errorf("building vitis-node: %v\n%s", err, out)
	}
	return bin, nil
}

// Proc is one child process with its stdout and stderr scanned line by line.
type Proc struct {
	cmd   *exec.Cmd
	lines chan string   // lines Expect has not consumed yet
	eof   chan struct{} // closed once the output reaches EOF

	mu  sync.Mutex
	log []string // the last logKeep lines

	stopOnce sync.Once
	stopErr  error
}

// Start launches bin with args.
func Start(bin string, args ...string) (*Proc, error) {
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &Proc{cmd: cmd, lines: make(chan string, lineBuffer), eof: make(chan struct{})}
	go p.scan(stdout)
	return p, nil
}

func (p *Proc) scan(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		p.mu.Lock()
		p.log = append(p.log, line)
		if len(p.log) > logKeep {
			p.log = p.log[len(p.log)-logKeep:]
		}
		p.mu.Unlock()
		select {
		case p.lines <- line:
		default:
		}
	}
	close(p.lines)
	close(p.eof)
}

// Expect waits up to timeout for an output line containing substr and
// returns it. Lines before it are consumed.
func (p *Proc) Expect(substr string, timeout time.Duration) (string, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				return "", fmt.Errorf("pid %d exited before printing %q; log tail:\n%s", p.cmd.Process.Pid, substr, p.Log())
			}
			if strings.Contains(line, substr) {
				return line, nil
			}
		case <-timer.C:
			return "", fmt.Errorf("pid %d: no %q within %s; log tail:\n%s", p.cmd.Process.Pid, substr, timeout, p.Log())
		}
	}
}

// LastField returns a line's last space-separated field: the address in
// vitis-node's "listening on <addr>" lines.
func LastField(line string) string { return line[strings.LastIndex(line, " ")+1:] }

// Signal delivers sig to the process.
func (p *Proc) Signal(sig os.Signal) error { return p.cmd.Process.Signal(sig) }

// Stop sends SIGTERM, waits for the process to close its output and exit,
// and kills it after stopGrace. It returns nil on a clean exit. Lines the
// process printed on its way out stay readable through Expect. Stop may be
// called more than once; later calls return the first call's result.
func (p *Proc) Stop() error {
	p.stopOnce.Do(func() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if the process is gone; Wait below reports how it ended
		select {
		case <-p.eof:
		case <-time.After(stopGrace):
			_ = p.cmd.Process.Kill() // same: Wait reports
			<-p.eof
			p.stopErr = fmt.Errorf("pid %d: no exit within %s of SIGTERM; killed", p.cmd.Process.Pid, stopGrace)
		}
		// Wait closes the pipe, so it runs only after scan has read to EOF.
		if err := p.cmd.Wait(); p.stopErr == nil {
			p.stopErr = err
		}
	})
	return p.stopErr
}

// Log returns the kept output lines, newline-joined.
func (p *Proc) Log() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.log, "\n")
}

// Count returns how many kept output lines contain substr.
func (p *Proc) Count(substr string) int {
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

var scrapeClient = &http.Client{Timeout: scrapeTimeout}

// Scrape GETs one node's /metrics and parses it. A malformed exposition is
// an error, not a silently missing sample.
func Scrape(addr string) (map[string]float64, error) {
	resp, err := scrapeClient.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics on %s returned %d", addr, resp.StatusCode)
	}
	m, err := telemetry.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("/metrics on %s: %w", addr, err)
	}
	return m, nil
}

// Settle calls sample every interval until the level it reports has held
// still for stableFor while ready, and fails once timeout passes first or
// sample fails. The level must never fall (a sum of counters, say), so an
// unchanged level means nothing moved.
func Settle(timeout, stableFor, interval time.Duration, sample func() (level float64, ready bool, err error)) error {
	deadline := time.Now().Add(timeout)
	last, since := math.NaN(), time.Now()
	for {
		level, ready, err := sample()
		if err != nil {
			return err
		}
		if level != last {
			last, since = level, time.Now()
		} else if ready && time.Since(since) >= stableFor {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not settled within %s (level %v, ready %v)", timeout, level, ready)
		}
		time.Sleep(interval)
	}
}

// TB is the part of testing.TB the test helpers below use.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
	Cleanup(func())
}

// BuildT is Build for tests: a failure ends the test.
func BuildT(t TB, dir string) string {
	t.Helper()
	bin, err := Build(dir)
	if err != nil {
		t.Fatalf("%v", err)
	}
	return bin
}

// StartT is Start for tests: a failure ends the test, and the process is
// stopped when the test finishes.
func StartT(t TB, bin string, args ...string) *Proc {
	t.Helper()
	p, err := Start(bin, args...)
	if err != nil {
		t.Fatalf("%v", err)
	}
	t.Cleanup(func() { p.Stop() })
	return p
}

// MustExpect is Expect for tests: a missing line ends the test.
func (p *Proc) MustExpect(t TB, substr string, timeout time.Duration) string {
	t.Helper()
	line, err := p.Expect(substr, timeout)
	if err != nil {
		t.Fatalf("%v", err)
	}
	return line
}
