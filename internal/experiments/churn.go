package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"vitis/internal/metrics"
	"vitis/internal/simnet"
	"vitis/internal/workload"
)

// ChurnRunConfig describes a dynamic-membership run (Fig. 12): nodes join
// and leave according to a trace while events are published continuously.
type ChurnRunConfig struct {
	System System
	Subs   *workload.Subscriptions
	// Trace holds sessions whose Node field is the node *index*.
	Trace simnet.Trace
	// PublishEvery is the interval between published events.
	PublishEvery simnet.Time
	// Bucket is the time-series bucket width.
	Bucket simnet.Time
	// MinMembership is how long a node must have been in before it counts
	// as an expected receiver (§IV-E/F: "the hit ratio for a node is
	// calculated 10 seconds after the node joins the system").
	MinMembership simnet.Time

	RTSize       int
	SWLinks      int
	GatewayHops  int
	OPTMaxDegree int

	Seed int64
}

// ChurnResult carries the metrics oracle (with its time series) and the
// sampled network size.
type ChurnResult struct {
	Oracle *metrics.Oracle
	// SizeSeries samples the alive-node count every Bucket.
	SizeSeries []metrics.SeriesPoint
}

// RunChurn replays the trace over the chosen system.
func RunChurn(cfg ChurnRunConfig) (*ChurnResult, error) {
	if cfg.Subs == nil || len(cfg.Trace) == 0 {
		return nil, fmt.Errorf("experiments: churn config needs Subs and Trace")
	}
	if cfg.PublishEvery <= 0 {
		cfg.PublishEvery = 2 * simnet.Second
	}
	if cfg.Bucket <= 0 {
		cfg.Bucket = 50 * simnet.Second
	}
	if cfg.MinMembership == 0 {
		cfg.MinMembership = 10 * simnet.Second
	}

	n := cfg.Subs.Nodes
	eng := simnet.NewEngine(cfg.Seed + 3)
	net := simnet.NewNetwork(eng, simnet.UniformLatency{Min: 10, Max: 80})
	col := metrics.NewWithSeries(cfg.Bucket, eng.Now)
	rng := rand.New(rand.NewSource(cfg.Seed + 4))

	tids := topicIDs(cfg.Subs.Topics)
	nids := nodeIDs(n)
	subsOf := cfg.Subs.SubscribersOf()

	nodes := make([]node, n) // nil when down
	joinedAt := make([]simnet.Time, n)
	aliveIdx := make(map[int]bool)

	onJoin := func(id simnet.NodeID) {
		i := int(id)
		nd := newNode(cfg.System, net, nids[i], col, n, cfg.RTSize, cfg.SWLinks, cfg.GatewayHops, cfg.OPTMaxDegree)
		for _, ti := range cfg.Subs.Subs[i] {
			nd.Subscribe(tids[ti])
		}
		// Bootstrap from up to 3 random alive nodes; the very first node
		// starts alone. Iterate a sorted snapshot so runs stay
		// deterministic (map order is randomized by the runtime).
		alive := sortedKeys(aliveIdx)
		var boot []simnet.NodeID
		if len(alive) <= 3 {
			for _, j := range alive {
				boot = append(boot, nids[j])
			}
		} else {
			for _, k := range rng.Perm(len(alive))[:3] {
				boot = append(boot, nids[alive[k]])
			}
		}
		nd.Join(boot)
		nodes[i] = nd
		joinedAt[i] = eng.Now()
		aliveIdx[i] = true
	}
	onLeave := func(id simnet.NodeID) {
		i := int(id)
		if nodes[i] != nil {
			nodes[i].Leave()
			nodes[i] = nil
		}
		delete(aliveIdx, i)
	}
	simnet.ApplyTrace(eng, cfg.Trace, onJoin, onLeave)

	end := cfg.Trace.End()

	// Continuous publication: every PublishEvery, publish one event on a
	// random topic that has an eligible publisher.
	eng.Every(cfg.PublishEvery, func() bool {
		if eng.Now() >= end {
			return false
		}
		if len(aliveIdx) == 0 {
			return true
		}
		now := eng.Now()
		eligible := func(i int) bool {
			return nodes[i] != nil && nodes[i].Alive() && now-joinedAt[i] >= cfg.MinMembership
		}
		// Try a few random topics until one has an eligible publisher.
		for attempt := 0; attempt < 8; attempt++ {
			ti := rng.Intn(cfg.Subs.Topics)
			var candidates []int
			for _, si := range subsOf[ti] {
				if eligible(si) {
					candidates = append(candidates, si)
				}
			}
			if len(candidates) == 0 {
				continue
			}
			pubIdx := candidates[rng.Intn(len(candidates))]
			topic := tids[ti]
			expected := make([]simnet.NodeID, 0, len(candidates))
			for _, si := range candidates {
				expected = append(expected, nids[si])
			}
			ev := nodes[pubIdx].publish(topic)
			col.RecordPublish(ev, topic, now, expected)
			// The publisher's own delivery hook fired inside publish,
			// before the event was registered; re-record it.
			col.Deliver(ev, nids[pubIdx], 0)
			return true
		}
		return true
	})

	// Sample the network size each bucket.
	var sizes []metrics.SeriesPoint
	eng.Every(cfg.Bucket, func() bool {
		sizes = append(sizes, metrics.SeriesPoint{Start: eng.Now(), Value: float64(net.NumAlive())})
		return eng.Now() < end
	})

	eng.RunUntil(end + 20*simnet.Second)

	addRunTotals(eng.EventsExecuted(), net.BytesSent())
	return &ChurnResult{Oracle: col, SizeSeries: sizes}, nil
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
