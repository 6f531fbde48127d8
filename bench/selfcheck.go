package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// The self-check measures the benchmark against itself the way the driver
// does: every workload is run as two interleaved sets (A B A B …) of fresh
// processes, each run of a set with another seed, and for every (workload,
// end-to-end metric) the two medians and the spread inside each set are held
// against the metric's bound. Its report is committed as NOISE.md and set
// A's numbers as baseline/<workload>.json, both in the benchmark's own
// directory.

// selfcheckRuns is the runs per set: the ten the driver makes, and the ten
// pairs a performance claim needs.
const selfcheckRuns = 10

type runOutput struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// runChild runs one workload in a fresh process of this binary and parses
// the result object from the last line of its standard output.
func runChild(workload string, seed int64) (*runOutput, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(runSeconds))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out runOutput
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !out.Correct {
		return nil, fmt.Errorf("%s seed %d: outputs not correct\n%s", workload, seed, stderr.String())
	}
	return &out, nil
}

type metricStats struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func statsOf(unit string, values []float64) metricStats {
	q1, q2, q3 := quartiles(values)
	return metricStats{Unit: unit, Median: q2, Q1: q1, Q3: q3, N: len(values), Values: values}
}

type baseline struct {
	Workload   string                 `json:"workload"`
	Seeds      []int64                `json:"seeds"`
	RunSeconds int                    `json:"run_seconds"`
	NProc      int                    `json:"nproc"`
	GoVersion  string                 `json:"go_version"`
	Network    string                 `json:"network"`
	Failed     int                    `json:"failed"`
	Attempted  int                    `json:"attempted"`
	Metrics    map[string]metricStats `json:"metrics"`
}

// worseBy is how much worse b is than a as a share of a, in the metric's
// own direction; negative when b is better.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

func runSelfcheck() error {
	if _, err := os.Stat(filepath.Join(benchDir, "run.sh")); err != nil {
		return fmt.Errorf("not at the repository root: %w", err)
	}
	started := time.Now()
	var md strings.Builder
	fmt.Fprintf(&md, "# Benchmark noise record\n\n")
	fmt.Fprintf(&md, "Written by `bash bench/run.sh --selfcheck` (%d runs per set, %d s each) on %s (%s, nproc %d; every run is a process on one P).\n",
		selfcheckRuns, runSeconds, started.UTC().Format("2006-01-02 15:04 MST"), runtime.Version(), runtime.NumCPU())
	fmt.Fprintf(&md, "Every workload ran as two interleaved sets A and B of %d fresh processes each, run i of both sets with seed i.\n", selfcheckRuns)
	fmt.Fprintf(&md, "`gap` is how much worse set B's median is than set A's as a share of A's (negative: better); `spread` is the\n")
	fmt.Fprintf(&md, "interquartile distance as a share of the median, by Python's `statistics.quantiles(values, n=4)`. A row fails when\n")
	fmt.Fprintf(&md, "|gap| or a spread (`setup_s` excepted) exceeds the bound; `tight` marks rows above a third of it.\n")
	fmt.Fprintf(&md, "udp-* traffic crossed the host loopback interface, never a real link.\n")

	failures := 0
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		var attempted, failed int
		var seeds []int64
		for i := 1; i <= selfcheckRuns; i++ {
			seeds = append(seeds, int64(i))
			for s := range sets {
				t0 := time.Now()
				out, err := runChild(w.Name, int64(i))
				if err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "selfcheck: %s set %c seed %d: %.1f s\n", w.Name, 'A'+s, i, time.Since(t0).Seconds())
				for name, m := range out.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
				if s == 0 {
					attempted += out.Attempted
					failed += out.Failed
				}
			}
		}
		fmt.Fprintf(&md, "\n## %s\n\n| metric | unit | median A | median B | gap | spread A | spread B | bound | verdict |\n|---|---|---|---|---|---|---|---|---|\n", w.Name)
		base := baseline{
			Workload: w.Name, Seeds: seeds, RunSeconds: runSeconds, NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
			Network:   "host loopback interface (udp-*) or in-memory simulator (sim-*); never a real link",
			Attempted: attempted, Failed: failed, Metrics: map[string]metricStats{},
		}
		for _, d := range endToEnd {
			a, b := statsOf(d.Unit, sets[0][d.Name]), statsOf(d.Unit, sets[1][d.Name])
			base.Metrics[d.Name] = a
			gap := worseBy(d, a.Median, b.Median)
			worst := math.Abs(gap)
			if d.Name != "setup_s" {
				worst = math.Max(worst, math.Max(spread(a.Values), spread(b.Values)))
			}
			verdict := "ok"
			switch {
			case worst > d.Bound:
				verdict = "FAIL"
				failures++
			case worst > d.Bound/3:
				verdict = "tight"
			}
			fmt.Fprintf(&md, "| %s | %s | %.6g | %.6g | %+.2f%% | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				d.Name, d.Unit, a.Median, b.Median, 100*gap, 100*spread(a.Values), 100*spread(b.Values), 100*d.Bound, verdict)
		}
		js, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(benchDir, "baseline"), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(benchDir, "baseline", w.Name+".json"), append(js, '\n'), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(&md, "\n%d failing rows; %d runs in %.0f s.\n", failures, 2*selfcheckRuns*len(workloads), time.Since(started).Seconds())
	if err := os.WriteFile(filepath.Join(benchDir, "NOISE.md"), []byte(md.String()), 0o644); err != nil {
		return err
	}
	fmt.Print(md.String())
	if failures > 0 {
		return fmt.Errorf("%d (workload, metric) rows outside their bound", failures)
	}
	return nil
}
