// Command bench is the repository's benchmark: five workloads across the
// simulator and the real UDP wire path, eight bounded end-to-end metrics, and a traced
// run that prices every layer from outside. See README.md in this directory.
//
// It runs from the repository root, where run.sh puts it:
//
//	bash bench/run.sh --workload sim-publish --seed 1
//	bash bench/run.sh --workload udp-load --trace 1
//	bash bench/run.sh --selfcheck                     (noise record, ~25 min)
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything else goes to standard
// error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"text/tabwriter"
)

// The benchmark's own directory and, inside it, the one for trace files and
// temporary stores, both relative to the repository root.
const (
	benchDir = "bench"
	outDir   = benchDir + "/out"
)

func main() {
	workload := flag.String("workload", "", "one of: sim-converge sim-publish udp-idle udp-load udp-catchup")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", runSeconds, "measured seconds; every workload's amount of work is a fixed function of it")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics instead of the end-to-end ones")
	selfcheck := flag.Bool("selfcheck", false, "run every workload as two interleaved sets and compare them against the bounds; rewrites NOISE.md and baseline/")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *selfcheck {
		if err := runSelfcheck(); err != nil {
			fatalf("selfcheck: %v", err)
		}
		return
	}
	// One P: on the shared two-core box, scheduling goroutines across cores
	// was the largest source of run-to-run noise (±13 % CPU for identical
	// work on udp-load, against ±2 % on one P), and every node of a real
	// deployment is a single-threaded event loop anyway.
	runtime.GOMAXPROCS(1)
	if *seconds < 1 || *seconds > 60 {
		fatalf("-seconds must be within 1..60")
	}
	p, err := planFor(*workload, *seconds)
	if err != nil {
		fatalf("%v", err)
	}
	res, err := p.run(*seed, *trace != 0, outDir)
	if err != nil {
		fatalf("%v", err)
	}
	defs := endToEnd
	if *trace != 0 {
		defs = perLayer
	}
	report(res, defs)
	if len(res.problems) > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...)
	os.Exit(2)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the table for people on standard error and the result
// object for the driver as the last line of standard output.
func report(res *result, defs []metricDef) {
	fmt.Fprintf(os.Stderr, "workload %s — traffic crosses the host loopback interface (udp-*) or stays in memory (sim-*), never a real link\n", res.workload)
	tw := tabwriter.NewWriter(os.Stderr, 0, 8, 2, ' ', 0)
	out := map[string]metricOut{}
	for _, d := range defs {
		v := res.metrics[d.Name]
		out[d.Name] = metricOut{v, d.Unit}
		if res.absent[d.Name] {
			fmt.Fprintf(tw, "%s\tn/a\t%s\t(nothing to measure on this run)\n", d.Name, d.Unit)
		} else {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\n", d.Name, v, d.Unit)
		}
	}
	tw.Flush()
	for _, n := range res.notes {
		fmt.Fprintln(os.Stderr, "note:", n)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "INCORRECT:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, out})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}
