package deploy

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"vitis/internal/bootstrap"
	"vitis/internal/idspace"
	"vitis/internal/simnet"
	"vitis/internal/telemetry"
)

// The membership property test drives a few deployed nodes against a
// bootstrap node whose behaviour follows a random schedule — answering,
// silent, slow, empty, naming only dead peers — while random nodes are cut
// off from everyone for a while, then heals everything, all in virtual
// time. It checks the node side of Algorithm 1 against a model of the
// backoff that only watches the wire.

const (
	propPeriod = simnet.Second
	propBS     = simnet.NodeID(1)
	maxWait    = simnet.Time(maxBackoff / time.Millisecond)
)

// fullDelay is the un-jittered backoff delay before retry a; a node draws
// its real delay from [fullDelay/2, fullDelay].
func fullDelay(a int) simnet.Time {
	d := propPeriod
	for i := 0; i < a && d < maxWait; i++ {
		d *= 2
	}
	return min(d, maxWait)
}

// mode is what the bootstrap node does with a message.
type mode int

const (
	answering mode = iota
	silent         // drops everything, as if crashed
	slow           // handles everything, late
	empty          // answers with no peers and registers nobody
	deadPeers      // answers with peers that do not exist
)

var modeNames = []string{"answering", "silent", "slow", "empty", "dead-peers"}

type segment struct {
	mode mode
	slow simnet.Time // the lag in slow mode
	dur  simnet.Time
}

type cut struct {
	node     int
	from, to simnet.Time
}

// schedule is one drawn run: bootstrap segments back to back from time 0,
// cuts inside them, then everything heals.
type schedule struct {
	segs []segment
	cuts []cut
	heal simnet.Time
}

func drawSchedule(rng *rand.Rand, nodes int) schedule {
	var s schedule
	for i := 1 + rng.Intn(5); i > 0; i-- {
		seg := segment{mode: mode(rng.Intn(len(modeNames))), dur: simnet.Time(10+rng.Intn(80)) * propPeriod}
		seg.slow = simnet.Time(1+rng.Intn(10)) * propPeriod
		s.segs = append(s.segs, seg)
		s.heal += seg.dur
	}
	for n := 0; n < nodes; n++ {
		if rng.Intn(2) == 0 {
			from := simnet.Time(rng.Int63n(int64(s.heal)))
			s.cuts = append(s.cuts, cut{node: n, from: from, to: min(s.heal, from+simnet.Time(10+rng.Intn(60))*propPeriod)})
		}
	}
	return s
}

func (s schedule) String() string {
	var b strings.Builder
	for _, seg := range s.segs {
		fmt.Fprintf(&b, "%s %ds; ", modeNames[seg.mode], seg.dur/propPeriod)
		if seg.mode == slow {
			fmt.Fprintf(&b, "(lag %ds) ", seg.slow/propPeriod)
		}
	}
	for _, c := range s.cuts {
		fmt.Fprintf(&b, "cut node %d %d-%ds; ", c.node, c.from/propPeriod, c.to/propPeriod)
	}
	fmt.Fprintf(&b, "heal at %ds", s.heal/propPeriod)
	return b.String()
}

// faultyBootstrap fronts the bootstrap service with the current mode.
type faultyBootstrap struct {
	net  *simnet.Network
	svc  *bootstrap.Service
	seg  segment
	dead []simnet.NodeID
}

func (f *faultyBootstrap) Deliver(from simnet.NodeID, msg simnet.Message) {
	_, req := msg.(bootstrap.JoinReq)
	switch f.seg.mode {
	case answering:
		f.svc.Deliver(from, msg)
	case slow:
		f.net.Engine().Schedule(f.seg.slow, func() { f.svc.Deliver(from, msg) })
	case empty:
		if req {
			f.net.Send(propBS, from, bootstrap.JoinResp{})
		}
	case deadPeers:
		if req {
			f.net.Send(propBS, from, bootstrap.JoinResp{Peers: f.dead})
		}
	}
}

// sent is one JoinReq with the model's count of JoinReqs the node had sent
// since its backoff last had to restart.
type sent struct {
	at simnet.Time
	k  int
}

// line is one log line with the model count when it was printed.
type line struct {
	at   simnet.Time
	text string
	k    int
}

// link is one node's view of the network. It records the node's JoinReqs
// and log lines, drops everything in and out while the node is cut off,
// and keeps the model: a node's backoff restarts when a peer other than
// the bootstrap node speaks to it while it is joined and not isolated.
type link struct {
	*simnet.Network
	m        *membership
	cut      bool
	healed   bool // the schedule has healed
	unserved bool // since the heal, a JoinResp named nobody
	k        int
	reqs     []sent
	lines    []line
	errors   []string
}

func (l *link) Send(from, to simnet.NodeID, msg simnet.Message) {
	if _, ok := msg.(bootstrap.JoinReq); ok {
		l.reqs = append(l.reqs, sent{at: l.Engine().Now(), k: l.k})
		l.k++
	}
	if !l.cut {
		l.Network.Send(from, to, msg)
	}
}

func (l *link) Attach(id simnet.NodeID, h simnet.Handler) {
	l.Network.Attach(id, simnet.HandlerFunc(func(from simnet.NodeID, msg simnet.Message) {
		if l.cut {
			return
		}
		h.Deliver(from, msg)
		if r, ok := msg.(bootstrap.JoinResp); ok && l.healed && len(r.Peers) == 0 {
			l.unserved = true
		}
		if from != propBS && l.m.Joined() && !l.m.node.Isolated() {
			l.k = 0
		}
	}))
}

// Write takes the node's log lines. An isolation line opens an episode;
// when no JoinReq can be pending (nothing was sent and no episode opened
// within the last maxWait), the episode's first JoinReq must follow within
// the model's full backoff delay, unless the episode ends first.
func (l *link) Write(b []byte) (int, error) {
	now := l.Engine().Now()
	ln := line{at: now, text: strings.TrimSpace(string(b)), k: l.k}
	if strings.HasPrefix(ln.text, "isolated;") && l.quietSince() < now-maxWait {
		deadline := now
		if ln.k > 0 {
			deadline += fullDelay(ln.k - 1)
		}
		l.Engine().ScheduleAt(deadline+1, func() {
			asked := len(l.reqs) > 0 && l.reqs[len(l.reqs)-1].at >= now
			if !asked && l.m.state() == isolated {
				l.errorf("isolated at %dms with backoff count %d but no JoinReq by %dms", now, ln.k, deadline)
			}
		})
	}
	l.lines = append(l.lines, ln)
	return len(b), nil
}

// quietSince is the latest JoinReq or episode start.
func (l *link) quietSince() simnet.Time {
	t := simnet.Time(-1)
	if len(l.reqs) > 0 {
		t = l.reqs[len(l.reqs)-1].at
	}
	for _, ln := range l.lines {
		if strings.HasPrefix(ln.text, "isolated;") {
			t = max(t, ln.at)
		}
	}
	return t
}

func (l *link) errorf(format string, args ...any) {
	l.errors = append(l.errors, fmt.Sprintf(format, args...))
}

// checkEnvelope: JoinReq number k+1 since the last restart comes no sooner
// than half the full delay of retry k-1 after the one before. A second
// JoinReq chain, or a backoff that restarts without a live neighbour,
// breaks it.
func (l *link) checkEnvelope() {
	for j := 1; j < len(l.reqs); j++ {
		r := l.reqs[j]
		if r.k == 0 {
			continue
		}
		if gap, lo := r.at-l.reqs[j-1].at, fullDelay(r.k-1)/2; gap < lo-1 {
			l.errorf("JoinReq at %dms came %dms after the one before, with %d since the restart; want at least %dms",
				r.at, gap, r.k, lo)
		}
	}
}

// checkLines: one join line first, then episodes of an isolation line and
// at most one rejoin line each.
func (l *link) checkLines() {
	for i, ln := range l.lines {
		first := i == 0
		isJoin := strings.HasPrefix(ln.text, "joined with ")
		isIso := strings.HasPrefix(ln.text, "isolated; rejoining via bootstrap ")
		isRejoin := strings.HasPrefix(ln.text, "rejoined with ")
		switch {
		case first && !isJoin, !first && isJoin:
			l.errorf("line %d %q: want exactly one join line, first", i, ln.text)
		case isRejoin && !strings.HasPrefix(l.lines[i-1].text, "isolated;"):
			l.errorf("line %d %q does not follow an isolation line", i, ln.text)
		case !first && !isIso && !isRejoin:
			l.errorf("line %d %q is not a membership line", i, ln.text)
		}
	}
}

// runSchedule deploys nodes against a bootstrap node following s and
// returns each node's link.
func runSchedule(seed int64, nodes int, s schedule) []*link {
	eng := simnet.NewEngine(seed)
	net := simnet.NewNetwork(eng, simnet.ConstantLatency(20))
	fb := &faultyBootstrap{net: net, seg: s.segs[0]}
	fb.svc = Bootstrap(net, propBS, propPeriod)
	net.Attach(propBS, fb)
	for i := 0; i < 3; i++ {
		fb.dead = append(fb.dead, idspace.HashUint64(uint64(1000+i)))
	}
	at := simnet.Time(0)
	for _, seg := range s.segs {
		seg := seg
		eng.ScheduleAt(at, func() { fb.seg = seg })
		at += seg.dur
	}

	links := make([]*link, nodes)
	for i := range links {
		l := &link{Network: net}
		links[i] = l
		l.m = New(l, Config{
			Self: idspace.HashUint64(uint64(i)), Bootstrap: propBS, Period: propPeriod,
			Registry: telemetry.NewRegistry(), Log: l,
		}).membership
	}
	for _, c := range s.cuts {
		l := links[c.node]
		eng.ScheduleAt(c.from, func() { l.cut = true })
		eng.ScheduleAt(c.to, func() { l.cut = false })
	}
	eng.ScheduleAt(s.heal, func() {
		fb.seg = segment{mode: answering}
		for _, l := range links {
			l.healed = true
		}
	})

	// After the heal the bootstrap node registers only live nodes. Every
	// node still joining or isolated then whose registry holds a live peer
	// for it, so that no answer it gets names nobody, is back in the
	// overlay within maxWait plus two periods.
	eng.RunUntil(s.heal)
	var waiting []int
	for i, l := range links {
		if l.m.state() != joined {
			waiting = append(waiting, i)
		}
	}
	healed := s.heal + maxWait + 2*propPeriod
	eng.RunUntil(healed)
	for _, i := range waiting {
		if l := links[i]; l.m.state() != joined && !l.unserved {
			l.errorf("still %v at %dms, %dms after the heal", l.m.state(), healed, healed-s.heal)
		}
	}
	eng.RunUntil(healed + 4*maxWait)
	for _, l := range links {
		l.checkEnvelope()
		l.checkLines()
		if !l.m.Joined() || l.m.node.Isolated() {
			l.errorf("joined=%v isolated=%v at the end", l.m.Joined(), l.m.node.Isolated())
		}
	}
	return links
}

func (p phase) String() string { return [...]string{"joining", "joined", "isolated"}[p] }

// TestMembershipUnderBootstrapSchedules is the property test over random
// bootstrap schedules; see the checks on link.
func TestMembershipUnderBootstrapSchedules(t *testing.T) {
	const nodes = 4
	seeds := int64(100)
	if testing.Short() {
		seeds = 20
	}
	for seed := int64(1); seed <= seeds; seed++ {
		s := drawSchedule(rand.New(rand.NewSource(seed)), nodes)
		for i, l := range runSchedule(seed, nodes, s) {
			for _, e := range l.errors {
				t.Errorf("seed %d (%s) node %d: %s", seed, s, i, e)
			}
			if t.Failed() {
				var b strings.Builder
				for _, ln := range l.lines {
					fmt.Fprintf(&b, "\n  %7dms k=%d %s", ln.at, ln.k, ln.text)
				}
				t.Logf("node %d: %d JoinReqs; log:%s", i, len(l.reqs), b.String())
			}
		}
		if t.Failed() {
			return
		}
	}
}
