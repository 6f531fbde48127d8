package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Span reconstruction: turn a recorded JSONL trace back into per-event
// propagation trees (who forwarded to whom, at which hop) and per-lookup
// relay paths, so live runs can be cross-checked against the simulator's
// delay and overhead numbers.

// EventKey identifies one published event.
type EventKey struct {
	Pub uint64
	Seq uint64
}

func (k EventKey) String() string { return fmt.Sprintf("%016x:%d", k.Pub, k.Seq) }

// TreeNode is one node's position in an event's propagation tree.
type TreeNode struct {
	ID       uint64
	Hops     int // overlay hops from the publisher (0 = publisher)
	Children []*TreeNode
}

// EventTree is the reconstructed propagation of one event.
type EventTree struct {
	Key       EventKey
	Topic     uint64
	PublishTS int64
	Root      *TreeNode // nil when the publish span is missing from the trace

	Receipts   int // recv spans (first receipt per node)
	Duplicates int // recv spans flagged as duplicates
	Deliveries int // deliver spans
	MaxHops    int
	hopSum     int
	hopCount   int // deliveries with hops > 0
}

// AvgHops is the mean delivery hop count over deliveries with hops > 0 —
// the same definition as the simulator's metrics.Oracle.AvgDelay, so the
// two are directly comparable.
func (t *EventTree) AvgHops() float64 {
	if t.hopCount == 0 {
		return 0
	}
	return float64(t.hopSum) / float64(t.hopCount)
}

// Depth returns the longest root-to-leaf hop distance in the tree, or
// MaxHops when no tree could be rooted.
func (t *EventTree) Depth() int { return t.MaxHops }

// RelayPath is one reconstructed relay-path lookup: the gateway that
// initiated it and the greedy hops it took.
type RelayPath struct {
	Topic      uint64
	Origin     uint64 // initiating gateway
	Hops       int    // relay_hop spans observed
	Rendezvous uint64 // node that assumed rendezvous duty (0 if not traced)
	Refused    bool   // lookup died with an exhausted TTL
}

// Trace is a fully parsed span file.
type Trace struct {
	Spans  []SpanEvent
	Events []*EventTree
	Relays []RelayPath
}

// ReadSpans parses JSONL spans. Blank lines are skipped; a malformed line
// aborts with its line number so truncated traces fail loudly.
func ReadSpans(r io.Reader) ([]SpanEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var out []SpanEvent
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e SpanEvent
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Analyze reconstructs propagation trees and relay paths from spans.
func Analyze(spans []SpanEvent) *Trace {
	t := &Trace{Spans: spans}
	t.Events = buildTrees(spans)
	t.Relays = buildRelayPaths(spans)
	return t
}

// buildTrees groups spans by event and roots each event's first-receipt
// edges (recv: peer → node) under the publisher.
func buildTrees(spans []SpanEvent) []*EventTree {
	type builder struct {
		tree  *EventTree
		nodes map[uint64]*TreeNode // first-receipt node set, plus the root
		edges []SpanEvent          // non-duplicate recv spans in trace order
	}
	byEvent := make(map[EventKey]*builder)
	var order []EventKey
	get := func(k EventKey) *builder {
		b, ok := byEvent[k]
		if !ok {
			b = &builder{tree: &EventTree{Key: k}, nodes: make(map[uint64]*TreeNode)}
			byEvent[k] = b
			order = append(order, k)
		}
		return b
	}
	for _, s := range spans {
		switch s.Kind {
		case KindPublish:
			b := get(EventKey{s.Pub, s.Seq})
			b.tree.Topic = s.Topic
			b.tree.PublishTS = s.TS
			if b.nodes[s.Node] == nil {
				root := &TreeNode{ID: s.Node}
				b.nodes[s.Node] = root
				b.tree.Root = root
			}
		case KindRecv:
			b := get(EventKey{s.Pub, s.Seq})
			if s.Flag {
				b.tree.Duplicates++
				continue
			}
			b.tree.Receipts++
			b.edges = append(b.edges, s)
			if s.Hops > b.tree.MaxHops {
				b.tree.MaxHops = s.Hops
			}
		case KindDeliver:
			b := get(EventKey{s.Pub, s.Seq})
			b.tree.Deliveries++
			if s.Hops > 0 {
				b.tree.hopSum += s.Hops
				b.tree.hopCount++
			}
			if s.Hops > b.tree.MaxHops {
				b.tree.MaxHops = s.Hops
			}
		}
	}
	out := make([]*EventTree, 0, len(order))
	for _, k := range order {
		b := byEvent[k]
		// Graft edges in hop order so a child's parent exists by the time
		// the child is placed; orphans (parent edge lost or trace from a
		// single node) attach under a synthetic root only if one exists.
		sort.SliceStable(b.edges, func(i, j int) bool { return b.edges[i].Hops < b.edges[j].Hops })
		for _, e := range b.edges {
			if b.nodes[e.Node] != nil {
				continue // keep the first receipt only
			}
			child := &TreeNode{ID: e.Node, Hops: e.Hops}
			b.nodes[e.Node] = child
			if parent := b.nodes[e.Peer]; parent != nil {
				parent.Children = append(parent.Children, child)
			} else if b.tree.Root == nil {
				// No publish span recorded: root the tree at the sender of
				// the earliest receipt.
				b.tree.Root = &TreeNode{ID: e.Peer}
				b.nodes[e.Peer] = b.tree.Root
				b.tree.Root.Children = append(b.tree.Root.Children, child)
			} else {
				// Parent unknown (its receipt was not traced): attach to
				// the root so the node still shows up.
				b.tree.Root.Children = append(b.tree.Root.Children, child)
			}
		}
		sortTree(b.tree.Root)
		out = append(out, b.tree)
	}
	return out
}

func sortTree(n *TreeNode) {
	if n == nil {
		return
	}
	sort.Slice(n.Children, func(i, j int) bool {
		a, b := n.Children[i], n.Children[j]
		if a.Hops != b.Hops {
			return a.Hops < b.Hops
		}
		return a.ID < b.ID
	})
	for _, c := range n.Children {
		sortTree(c)
	}
}

// buildRelayPaths groups relay spans by (topic, origin). Hops are counted
// from relay_hop spans; the path terminates at a rendezvous or a refusal.
func buildRelayPaths(spans []SpanEvent) []RelayPath {
	type key struct{ topic, origin uint64 }
	byKey := make(map[key]*RelayPath)
	var order []key
	get := func(k key) *RelayPath {
		p, ok := byKey[k]
		if !ok {
			p = &RelayPath{Topic: k.topic, Origin: k.origin}
			byKey[k] = p
			order = append(order, k)
		}
		return p
	}
	for _, s := range spans {
		switch s.Kind {
		case KindRelayLookup:
			get(key{s.Topic, s.Node})
		case KindRelayHop:
			get(key{s.Topic, s.Pub}).Hops++
		case KindRelayRdv:
			p := get(key{s.Topic, s.Pub})
			if p.Rendezvous == 0 {
				p.Rendezvous = s.Node
			}
		case KindRelayRefuse:
			get(key{s.Topic, s.Pub}).Refused = true
		}
	}
	out := make([]RelayPath, 0, len(order))
	for _, k := range order {
		out = append(out, *byKey[k])
	}
	return out
}

// Render writes a human-readable propagation tree:
//
//	event 00000000000000c8:0 topic 00000000000004d2
//	  receipts=3 duplicates=1 deliveries=3 max_hops=2 avg_hops=1.50
//	  00000000000000c8
//	  ├─ 00000000000000c9 (1 hop)
//	  │  └─ 00000000000000ca (2 hops)
//	  └─ 00000000000000cb (1 hop)
func (t *EventTree) Render(w io.Writer) {
	fmt.Fprintf(w, "event %s topic %016x\n", t.Key, t.Topic)
	fmt.Fprintf(w, "  receipts=%d duplicates=%d deliveries=%d max_hops=%d avg_hops=%.2f\n",
		t.Receipts, t.Duplicates, t.Deliveries, t.MaxHops, t.AvgHops())
	if t.Root == nil {
		fmt.Fprintf(w, "  (no propagation edges recorded)\n")
		return
	}
	fmt.Fprintf(w, "  %016x\n", t.Root.ID)
	renderChildren(w, t.Root, "  ")
}

func renderChildren(w io.Writer, n *TreeNode, prefix string) {
	for i, c := range n.Children {
		branch, cont := "├─ ", "│  "
		if i == len(n.Children)-1 {
			branch, cont = "└─ ", "   "
		}
		hop := "hops"
		if c.Hops == 1 {
			hop = "hop"
		}
		fmt.Fprintf(w, "%s%s%016x (%d %s)\n", prefix, branch, c.ID, c.Hops, hop)
		renderChildren(w, c, prefix+cont)
	}
}
