// Command vitis-sim runs a single publish/subscribe simulation and prints
// its metrics. It is the quickest way to poke at one configuration:
//
//	vitis-sim -system vitis -pattern high -nodes 512 -events 200
//	vitis-sim -system rvr -pattern random -rt 25
//	vitis-sim -system opt -pattern twitter -optdegree 15
//	vitis-sim -runs 8 -parallel 4   # 8 seed replicas, 4 at a time
//
// With -runs R the same configuration is replicated over R consecutive
// seeds (seed, seed+1, ...) and the replicas execute on up to -parallel
// worker goroutines (default: the CPU count). Every replica owns its own
// engine and RNG streams, so the per-seed results and their mean are
// independent of the worker count.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"vitis/internal/experiments"
	"vitis/internal/parallel"
	"vitis/internal/profiling"
	"vitis/internal/stats"
	"vitis/internal/workload"
)

func main() {
	var (
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	var (
		system   = flag.String("system", "vitis", "system to run: vitis, rvr or opt")
		pattern  = flag.String("pattern", "high", "subscription pattern: random, low, high or twitter")
		nodes    = flag.Int("nodes", 512, "number of nodes")
		topics   = flag.Int("topics", 1000, "number of topics (synthetic patterns)")
		subs     = flag.Int("subs", 50, "subscriptions per node (synthetic patterns)")
		buckets  = flag.Int("buckets", 20, "correlation buckets (synthetic patterns)")
		events   = flag.Int("events", 120, "events to publish")
		warmup   = flag.Int("warmup", 40, "warmup gossip rounds before publishing")
		window   = flag.Int("window", 20, "publication window in rounds")
		rt       = flag.Int("rt", 15, "routing table size")
		sw       = flag.Int("sw", 1, "small-world links k (vitis)")
		d        = flag.Int("d", 5, "gateway hop threshold (vitis)")
		optDeg   = flag.Int("optdegree", 0, "OPT degree bound (0 = unbounded)")
		alpha    = flag.Float64("alpha", 0, "publication rate skew (0 = uniform)")
		seed     = flag.Int64("seed", 1, "random seed")
		runs     = flag.Int("runs", 1, "seed replicas of the configuration (seed, seed+1, ...)")
		workers  = flag.Int("parallel", runtime.NumCPU(), "max concurrent replicas")
		progress = flag.Bool("progress", true, "print per-run timing to stderr")
	)
	flag.Parse()

	var sys experiments.System
	switch *system {
	case "vitis":
		sys = experiments.Vitis
	case "rvr":
		sys = experiments.RVR
	case "opt":
		sys = experiments.OPT
	default:
		fmt.Fprintf(os.Stderr, "unknown system %q\n", *system)
		os.Exit(2)
	}
	if *runs < 1 {
		*runs = 1
	}
	if *workers < 1 {
		*workers = 1
	}

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	finishProfiles := func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}

	// Workload generation per replica seed (cheap next to the simulation;
	// kept inside the replica so every seed gets its own pattern draw).
	buildSubs := func(runSeed int64) (*workload.Subscriptions, error) {
		switch *pattern {
		case "random", "low", "high":
			pat := map[string]workload.Pattern{
				"random": workload.Random, "low": workload.LowCorrelation, "high": workload.HighCorrelation,
			}[*pattern]
			return workload.Generate(workload.SyntheticConfig{
				Nodes: *nodes, Topics: *topics, SubsPerNode: *subs,
				Buckets: *buckets, Pattern: pat, Seed: runSeed,
			})
		case "twitter":
			graph, err := workload.GenerateTwitter(workload.TwitterConfig{Users: *nodes * 8, Seed: runSeed})
			if err != nil {
				return nil, err
			}
			sample := workload.BFSSample(graph, rand.New(rand.NewSource(runSeed+1)), *nodes)
			return workload.SubgraphSubscriptions(graph, sample), nil
		default:
			return nil, fmt.Errorf("unknown pattern %q", *pattern)
		}
	}

	type runOut struct {
		sub *workload.Subscriptions
		res *experiments.RunResult
	}
	start := time.Now()
	outs, err := parallel.Map(*workers, *runs, func(i int) (runOut, error) {
		runSeed := *seed + int64(i)
		runStart := time.Now()
		sub, err := buildSubs(runSeed)
		if err != nil {
			return runOut{}, fmt.Errorf("workload: %w", err)
		}
		var rates []float64
		if *alpha > 0 {
			rates = workload.TopicRates(rand.New(rand.NewSource(runSeed+2)), sub.Topics, *alpha)
		}
		res, err := experiments.Run(experiments.RunConfig{
			System:        sys,
			Subs:          sub,
			Rates:         rates,
			Events:        *events,
			WarmupRounds:  *warmup,
			MeasureRounds: *window,
			RTSize:        *rt,
			SWLinks:       *sw,
			GatewayHops:   *d,
			OPTMaxDegree:  *optDeg,
			Seed:          runSeed,
		})
		if err != nil {
			return runOut{}, fmt.Errorf("run: %w", err)
		}
		if *progress {
			fmt.Fprintf(os.Stderr, "  seed %d done in %v\n", runSeed, time.Since(runStart).Round(time.Millisecond))
		}
		return runOut{sub: sub, res: res}, nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		finishProfiles()
		os.Exit(1)
	}

	report := func(sub *workload.Subscriptions, res *experiments.RunResult) {
		fmt.Printf("system            %s\n", sys)
		fmt.Printf("pattern           %s\n", *pattern)
		fmt.Printf("nodes             %d\n", sub.Nodes)
		fmt.Printf("topics            %d\n", sub.Topics)
		fmt.Printf("avg subs/node     %.1f\n", sub.AvgSubsPerNode())
		fmt.Printf("events            %d\n", res.Oracle.Events())
		fmt.Printf("hit ratio         %.2f%%\n", 100*res.HitRatio)
		fmt.Printf("traffic overhead  %.2f%%\n", 100*res.Overhead)
		fmt.Printf("avg delay         %.2f hops (max %d)\n", res.AvgDelay, res.Oracle.MaxDelay())
		sum := stats.Summarize(res.PerNodeOverheadPct)
		fmt.Printf("per-node overhead p50=%.1f%% p90=%.1f%% max=%.1f%%\n",
			stats.Percentile(res.PerNodeOverheadPct, 50),
			stats.Percentile(res.PerNodeOverheadPct, 90), sum.Max)
		ds := stats.Summarize(intsToFloats(res.Degrees))
		fmt.Printf("node degree       mean=%.1f max=%.0f\n", ds.Mean, ds.Max)
	}

	if *runs == 1 {
		report(outs[0].sub, outs[0].res)
		finishProfiles()
		return
	}

	var hits, ovhs, delays []float64
	for i, o := range outs {
		fmt.Printf("seed %-6d hit %.2f%%  overhead %.2f%%  delay %.2f hops\n",
			*seed+int64(i), 100*o.res.HitRatio, 100*o.res.Overhead, o.res.AvgDelay)
		hits = append(hits, o.res.HitRatio)
		ovhs = append(ovhs, o.res.Overhead)
		delays = append(delays, o.res.AvgDelay)
	}
	fmt.Printf("\nmean over %d seeds (parallel=%d, %v wall):\n",
		*runs, *workers, time.Since(start).Round(time.Millisecond))
	fmt.Printf("hit ratio         %.2f%%\n", 100*stats.Summarize(hits).Mean)
	fmt.Printf("traffic overhead  %.2f%%\n", 100*stats.Summarize(ovhs).Mean)
	fmt.Printf("avg delay         %.2f hops\n", stats.Summarize(delays).Mean)
	finishProfiles()
}

func intsToFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
