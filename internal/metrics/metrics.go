// Package metrics implements the paper's three evaluation metrics (§IV):
//
//   - Hit ratio: the fraction of (event, subscriber) pairs delivered, with
//     the subscriber set frozen at publish time.
//   - Traffic overhead: the proportion of relay (uninteresting) data-plane
//     messages nodes receive, as an aggregate and as a per-node
//     distribution (Fig. 5).
//   - Propagation delay: the average number of overlay hops events take to
//     reach their subscribers.
//
// An Oracle is fed from the protocol hooks (OnDeliver/OnNotification) and
// from the experiment driver (RecordPublish). It is the simulator's ground
// truth: it sees every node and knows each event's subscriber set, which no
// live node can (telemetry.Collector is the live counterpart, built only
// from scraped counters). With a positive bucket width
// it additionally accumulates the time series used by the churn experiment
// (Fig. 12).
package metrics

import (
	"sort"

	"vitis/internal/idspace"
	"vitis/internal/simnet"
	"vitis/internal/stats"
)

// NodeID aliases the simulator's node identifier.
type NodeID = simnet.NodeID

// eventRecord tracks one published event.
type eventRecord struct {
	topic       idspace.ID
	publishedAt simnet.Time
	expected    map[NodeID]bool
	delivered   map[NodeID]int // node -> hops
}

// nodeTraffic counts data-plane receipts per node.
type nodeTraffic struct {
	total        int
	uninterested int
}

// Oracle accumulates metrics for one simulation run. It is
// single-threaded, like the simulator feeding it.
type Oracle struct {
	events  map[any]*eventRecord
	traffic map[NodeID]*nodeTraffic

	bucket     simnet.Time // 0 disables the time series
	nowFn      func() simnet.Time
	trafficSer map[int]*nodeTraffic // bucket -> aggregate traffic

	extraDeliveries int
}

// New creates an oracle without time series.
func New() *Oracle {
	return &Oracle{
		events:  make(map[any]*eventRecord),
		traffic: make(map[NodeID]*nodeTraffic),
	}
}

// NewWithSeries creates an oracle that also buckets measurements over
// simulated time. nowFn supplies the current time for traffic bucketing
// (typically engine.Now).
func NewWithSeries(bucket simnet.Time, nowFn func() simnet.Time) *Oracle {
	c := New()
	c.bucket = bucket
	c.nowFn = nowFn
	c.trafficSer = make(map[int]*nodeTraffic)
	return c
}

// RecordPublish registers a new event and freezes its expected subscriber
// set.
func (c *Oracle) RecordPublish(ev any, topic idspace.ID, at simnet.Time, expected []NodeID) {
	rec := &eventRecord{
		topic:       topic,
		publishedAt: at,
		expected:    make(map[NodeID]bool, len(expected)),
		delivered:   make(map[NodeID]int),
	}
	for _, id := range expected {
		rec.expected[id] = true
	}
	c.events[ev] = rec
}

// Deliver records that node received ev after the given number of hops.
// Deliveries of unknown events or to unexpected nodes are tallied separately
// and do not affect the hit ratio.
func (c *Oracle) Deliver(ev any, node NodeID, hops int) {
	rec, ok := c.events[ev]
	if !ok {
		c.extraDeliveries++
		return
	}
	if !rec.expected[node] {
		c.extraDeliveries++
		return
	}
	if _, dup := rec.delivered[node]; !dup {
		rec.delivered[node] = hops
	}
}

// Notification records one data-plane receipt at node; interested indicates
// whether the node subscribes to the topic.
func (c *Oracle) Notification(node NodeID, interested bool) {
	nt, ok := c.traffic[node]
	if !ok {
		nt = &nodeTraffic{}
		c.traffic[node] = nt
	}
	nt.total++
	if !interested {
		nt.uninterested++
	}
	if c.bucket > 0 {
		b := int(c.nowFn() / c.bucket)
		bt, ok := c.trafficSer[b]
		if !ok {
			bt = &nodeTraffic{}
			c.trafficSer[b] = bt
		}
		bt.total++
		if !interested {
			bt.uninterested++
		}
	}
}

// HitRatio returns delivered/(expected) over all (event, subscriber) pairs,
// in [0,1]. Events with no expected subscribers are skipped. Returns 1 for
// an empty oracle (nothing was missed).
func (c *Oracle) HitRatio() float64 {
	var expected, delivered int
	for _, rec := range c.events {
		expected += len(rec.expected)
		delivered += len(rec.delivered)
	}
	if expected == 0 {
		return 1
	}
	return float64(delivered) / float64(expected)
}

// AvgDelay returns the mean hop count over all deliveries to subscribers
// other than the publisher itself (whose local delivery is 0 hops). NaN-free:
// returns 0 when there were no such deliveries.
func (c *Oracle) AvgDelay() float64 {
	var sum, n int
	for _, rec := range c.events {
		for _, hops := range rec.delivered {
			if hops == 0 {
				continue
			}
			sum += hops
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// MaxDelay returns the largest delivery hop count seen.
func (c *Oracle) MaxDelay() int {
	var max int
	for _, rec := range c.events {
		for _, hops := range rec.delivered {
			if hops > max {
				max = hops
			}
		}
	}
	return max
}

// OverheadRatio returns the system-wide fraction of uninterested data-plane
// receipts, in [0,1].
func (c *Oracle) OverheadRatio() float64 {
	var total, unint int
	for _, nt := range c.traffic {
		total += nt.total
		unint += nt.uninterested
	}
	if total == 0 {
		return 0
	}
	return float64(unint) / float64(total)
}

// PerNodeOverheadPct returns, for every node that received at least one
// notification, its personal overhead percentage (0–100) — the distribution
// plotted in Fig. 5. Nodes that received nothing are reported by the allNodes
// argument: pass the full population so silent nodes count as 0% overhead,
// or nil to include only receiving nodes.
func (c *Oracle) PerNodeOverheadPct(allNodes []NodeID) []float64 {
	var out []float64
	seen := make(map[NodeID]bool, len(c.traffic))
	for id, nt := range c.traffic {
		seen[id] = true
		out = append(out, 100*float64(nt.uninterested)/float64(nt.total))
	}
	for _, id := range allNodes {
		if !seen[id] {
			out = append(out, 0)
		}
	}
	sort.Float64s(out)
	return out
}

// OverheadHistogram buckets the per-node overhead percentages into nbins
// equal bins over [0,100] and returns the fraction of nodes per bin.
func (c *Oracle) OverheadHistogram(allNodes []NodeID, nbins int) *stats.Histogram {
	h := stats.NewHistogram(0, 100.0000001, nbins)
	for _, pct := range c.PerNodeOverheadPct(allNodes) {
		h.Add(pct)
	}
	return h
}

// ExtraDeliveries returns deliveries that matched no tracked event or
// subscriber (useful to check nothing leaks where it should not).
func (c *Oracle) ExtraDeliveries() int { return c.extraDeliveries }

// Events returns the number of tracked events.
func (c *Oracle) Events() int { return len(c.events) }

// SeriesPoint is one bucket of a time series.
type SeriesPoint struct {
	Start simnet.Time
	Value float64
}

// HitRatioSeries returns the hit ratio of events bucketed by publish time.
func (c *Oracle) HitRatioSeries() []SeriesPoint {
	if c.bucket <= 0 {
		return nil
	}
	type agg struct{ exp, del int }
	buckets := make(map[int]*agg)
	for _, rec := range c.events {
		if len(rec.expected) == 0 {
			continue
		}
		b := int(rec.publishedAt / c.bucket)
		a, ok := buckets[b]
		if !ok {
			a = &agg{}
			buckets[b] = a
		}
		a.exp += len(rec.expected)
		a.del += len(rec.delivered)
	}
	out := make([]SeriesPoint, 0, len(buckets))
	for b, a := range buckets {
		out = append(out, SeriesPoint{Start: simnet.Time(b) * c.bucket, Value: float64(a.del) / float64(a.exp)})
	}
	sortSeries(out)
	return out
}

// DelaySeries returns the mean delivery hop count of events bucketed by
// publish time.
func (c *Oracle) DelaySeries() []SeriesPoint {
	if c.bucket <= 0 {
		return nil
	}
	type agg struct{ sum, n int }
	buckets := make(map[int]*agg)
	for _, rec := range c.events {
		b := int(rec.publishedAt / c.bucket)
		for _, hops := range rec.delivered {
			if hops == 0 {
				continue
			}
			a, ok := buckets[b]
			if !ok {
				a = &agg{}
				buckets[b] = a
			}
			a.sum += hops
			a.n++
		}
	}
	out := make([]SeriesPoint, 0, len(buckets))
	for b, a := range buckets {
		out = append(out, SeriesPoint{Start: simnet.Time(b) * c.bucket, Value: float64(a.sum) / float64(a.n)})
	}
	sortSeries(out)
	return out
}

// OverheadSeries returns the aggregate overhead ratio of notifications
// bucketed by receipt time.
func (c *Oracle) OverheadSeries() []SeriesPoint {
	if c.bucket <= 0 {
		return nil
	}
	out := make([]SeriesPoint, 0, len(c.trafficSer))
	for b, nt := range c.trafficSer {
		out = append(out, SeriesPoint{
			Start: simnet.Time(b) * c.bucket,
			Value: float64(nt.uninterested) / float64(nt.total),
		})
	}
	sortSeries(out)
	return out
}

func sortSeries(pts []SeriesPoint) {
	sort.Slice(pts, func(i, j int) bool { return pts[i].Start < pts[j].Start })
}
