package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"vitis/internal/core"
	"vitis/internal/sampling"
	"vitis/internal/simnet"
	"vitis/internal/tman"
	"vitis/internal/wire"
)

// The traced run measures every layer from outside: the carrier
// (*simnet.Network or *transport.Host) is wrapped in a bench-owned
// simnet.Net, so each inbound message is a span around the node's handler
// and each outbound message a child span around the carrier's Send. Nothing
// inside the program is instrumented.

const (
	maxSpans  = 100_000 // spans kept for the trace file; aggregates cover all
	maxCorpus = 10_000  // captured messages replayed through the codec
)

// classify maps a message to its wire type; notifications also yield their
// event id, which serves as the trace id. Unknown messages are type 0.
func classify(msg simnet.Message) (typ byte, ev core.EventID) {
	switch m := msg.(type) {
	case sampling.Request:
		return wire.TSamplingRequest, ev
	case sampling.Reply:
		return wire.TSamplingReply, ev
	case tman.Request:
		return wire.TTManRequest, ev
	case tman.Reply:
		return wire.TTManReply, ev
	case core.ProfileMsg:
		return wire.TProfile, ev
	case core.Notification:
		return wire.TNotification, m.Event
	case core.PullReq:
		return wire.TPullReq, ev
	case core.PullResp:
		return wire.TPullResp, ev
	case core.RelayMsg:
		return wire.TRelay, ev
	case core.CatchUpReq:
		return wire.TCatchUpReq, ev
	case core.CatchUpResp:
		return wire.TCatchUpResp, ev
	case core.ReplayReq:
		return wire.TReplayReq, ev
	}
	return 0, ev
}

// otherLayer indexes the aggregate of messages outside every named layer.
var otherLayer = len(layers)

// layerOf maps a wire type to its index in layers.
func layerOf(typ byte) int {
	switch typ {
	case wire.TSamplingRequest, wire.TSamplingReply:
		return 0
	case wire.TTManRequest, wire.TTManReply:
		return 1
	case wire.TProfile:
		return 2
	case wire.TNotification, wire.TPullReq, wire.TPullResp:
		return 3
	case wire.TRelay:
		return 4
	case wire.TCatchUpReq, wire.TCatchUpResp, wire.TReplayReq:
		return 5
	}
	return otherLayer
}

// dataLayer reports whether a layer carries published events rather than
// overlay maintenance.
func dataLayer(layer int) bool { return layer == 3 || layer == 5 }

// span is one timed call across a layer boundary.
type span struct {
	id, parent uint64
	send       bool // a carrier Send; otherwise a handler call
	typ        byte
	ev         core.EventID // trace id; zero for control messages
	node, peer simnet.NodeID
	start, end int64 // ns on the harness clock
}

type layerAgg struct {
	handled  uint64
	handleNs int64 // handler spans
	selfNs   int64 // handler spans minus their child sends
	sent     uint64
	sentB    uint64
	sendNs   int64
}

type capturedMsg struct {
	from, to simnet.NodeID
	msg      simnet.Message
}

// recorder collects the spans of one execution domain: the whole simulator
// (single-threaded), or one UDP node (everything of a node runs on its
// driver goroutine). Only active is touched from outside that domain.
type recorder struct {
	base   time.Time
	prefix uint64 // makes span ids unique across recorders
	active atomic.Bool

	agg        [7]layerAgg // layers..., other
	rootSendNs int64       // sends made outside any handler (timer callbacks)
	spanCount  uint64

	inHandle bool
	curID    uint64
	childNs  int64

	spans   []span
	maxKeep int
	corpus  []capturedMsg
	maxCorp int
}

func newRecorder(base time.Time, index, of int) *recorder {
	return &recorder{base: base, prefix: uint64(index+1) << 40, maxKeep: maxSpans / of, maxCorp: maxCorpus / of}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) keep(s span) {
	if len(r.spans) < r.maxKeep {
		r.spans = append(r.spans, s)
	}
}

// tracedNet is the bench-owned simnet.Net around a carrier.
type tracedNet struct {
	inner simnet.Net
	rec   *recorder
}

func (t *tracedNet) Engine() *simnet.Engine      { return t.inner.Engine() }
func (t *tracedNet) Detach(id simnet.NodeID)     { t.inner.Detach(id) }
func (t *tracedNet) Alive(id simnet.NodeID) bool { return t.inner.Alive(id) }
func (t *tracedNet) Attach(id simnet.NodeID, h simnet.Handler) {
	r := t.rec
	t.inner.Attach(id, simnet.HandlerFunc(func(from simnet.NodeID, msg simnet.Message) {
		if !r.active.Load() {
			h.Deliver(from, msg)
			return
		}
		typ, ev := classify(msg)
		layer := layerOf(typ)
		r.spanCount++
		id64 := r.prefix | r.spanCount
		r.inHandle, r.curID, r.childNs = true, id64, 0
		start := r.now()
		h.Deliver(from, msg)
		end := r.now()
		r.inHandle = false
		a := &r.agg[layer]
		a.handled++
		a.handleNs += end - start
		a.selfNs += end - start - r.childNs
		r.keep(span{id: id64, typ: typ, ev: ev, node: id, peer: from, start: start, end: end})
	}))
}

func (t *tracedNet) Send(from, to simnet.NodeID, msg simnet.Message) {
	r := t.rec
	if !r.active.Load() {
		t.inner.Send(from, to, msg)
		return
	}
	typ, ev := classify(msg)
	layer := layerOf(typ)
	start := r.now()
	t.inner.Send(from, to, msg)
	end := r.now()
	a := &r.agg[layer]
	a.sent++
	a.sentB += uint64(simnet.WireSizeOf(msg))
	a.sendNs += end - start
	r.spanCount++
	s := span{id: r.prefix | r.spanCount, send: true, typ: typ, ev: ev, node: from, peer: to, start: start, end: end}
	if r.inHandle {
		s.parent = r.curID
		r.childNs += end - start
	} else {
		r.rootSendNs += end - start
	}
	r.keep(s)
	if len(r.corpus) < r.maxCorp {
		r.corpus = append(r.corpus, capturedMsg{from, to, msg})
	}
}

// traceSummary is the recorders of one run merged.
type traceSummary struct {
	agg        [7]layerAgg
	rootSendNs int64
	spanCount  uint64
	spans      []span
	corpus     []capturedMsg
}

func mergeRecorders(recs []*recorder) *traceSummary {
	out := &traceSummary{}
	for _, r := range recs {
		for i, a := range r.agg {
			o := &out.agg[i]
			o.handled += a.handled
			o.handleNs += a.handleNs
			o.selfNs += a.selfNs
			o.sent += a.sent
			o.sentB += a.sentB
			o.sendNs += a.sendNs
		}
		out.rootSendNs += r.rootSendNs
		out.spanCount += r.spanCount
		out.spans = append(out.spans, r.spans...)
		out.corpus = append(out.corpus, r.corpus...)
	}
	linkParents(out.spans)
	return out
}

type linkKey struct {
	from, to simnet.NodeID
	typ      byte
	ev       core.EventID
}

// linkParents gives every handler span the send span that carried its
// message as parent: the earliest not-yet-claimed send with the same
// sender, receiver, type and event id that ended before the handler began.
func linkParents(spans []span) {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return spans[order[a]].start < spans[order[b]].start })
	pending := make(map[linkKey][]int)
	for _, i := range order {
		s := &spans[i]
		if s.send {
			k := linkKey{s.node, s.peer, s.typ, s.ev}
			pending[k] = append(pending[k], i)
			continue
		}
		k := linkKey{s.peer, s.node, s.typ, s.ev}
		if q := pending[k]; len(q) > 0 && spans[q[0]].end <= s.start {
			s.parent = spans[q[0]].id
			pending[k] = q[1:]
		}
	}
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover. Children may nest, overlap each other, or
// stick out of the parent (a handler whose parent is the send that carried
// it lies wholly after it); only the covered part of the parent's own
// interval is subtracted, and overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	index := make(map[uint64]int, len(spans))
	for i, s := range spans {
		index[s.id] = i
	}
	children := make([][]int, len(spans))
	for i, s := range spans {
		if p, ok := index[s.parent]; ok && s.parent != 0 {
			children[p] = append(children[p], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, edge := int64(0), s.start
		for _, k := range kids {
			lo, hi := spans[k].start, spans[k].end
			if lo < edge {
				lo = edge
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.end - s.start - covered
	}
	return out
}

// writeTrace writes the kept spans as JSON lines: one object per span with
// its id, parent id, trace id (publisher:seq of the event, empty for control
// traffic), operation, message type, layer, the node it ran on, the peer,
// start and end in ns since the run began, and self time.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := selfTimes(spans)
	for i, s := range spans {
		op := "handle"
		if s.send {
			op = "send"
		}
		trace := ""
		if s.ev != (core.EventID{}) {
			trace = fmt.Sprintf("%016x:%d", uint64(s.ev.Publisher), s.ev.Seq)
		}
		layer := "other"
		if l := layerOf(s.typ); l < len(layers) {
			layer = layers[l]
		}
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"trace":%q,"op":%q,"type":%q,"layer":%q,"node":"%016x","peer":"%016x","start_ns":%d,"end_ns":%d,"self_ns":%d}`+"\n",
			s.id, s.parent, trace, op, wire.TypeName(s.typ), layer, uint64(s.node), uint64(s.peer), s.start, s.end, self[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
