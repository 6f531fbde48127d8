package chaos

import (
	"math/rand"
	"sync"
	"time"

	"vitis/internal/simnet"
	"vitis/internal/telemetry"
	"vitis/internal/transport"
)

// Config parameterises a Controller. The zero value injects nothing.
type Config struct {
	// Seed anchors every per-link random stream. Two controllers with the
	// same Config observing the same per-link message sequences make
	// identical fault decisions.
	Seed int64
	// Drop is the per-message loss probability on every link.
	Drop float64
	// Duplicate is the probability a message is delivered twice.
	Duplicate float64
	// Reorder is the probability a message is held back and delivered
	// after its successor on the same link (hold-and-swap). A held
	// message with no successor within a short flush window is delivered
	// anyway, so reordering never becomes loss.
	Reorder float64
	// DelayMin and DelayMax bound the extra latency drawn uniformly per
	// message. Both zero disables jitter.
	DelayMin, DelayMax time.Duration
	// StashCap bounds each partition's stash of crossing messages. Zero
	// means the default (1024); negative disables stashing, so crossing
	// messages are dropped instead of released at heal.
	StashCap int
	// Metrics counts injected faults. Nil gets a private live bundle
	// (readable via Controller.Metrics); pass one built from a registry
	// to expose the counters on /metrics.
	Metrics *telemetry.ChaosMetrics
}

// defaultStashCap bounds a partition's stash when Config.StashCap is zero.
const defaultStashCap = 1024

// reorderFlush is how long a held-back message waits for a successor to
// swap with before it is delivered anyway.
const reorderFlush = 25 * time.Millisecond

// linkKey identifies one directed link.
type linkKey struct{ from, to simnet.NodeID }

// link is the per-directed-link fault state: a seeded decision stream plus
// at most one held-back message for the reorder fault.
type link struct {
	rng     *rand.Rand
	held    func()
	heldGen uint64
}

// partition is one active named partition: a member set cut off from every
// non-member, and the crossing traffic stashed until heal.
type partition struct {
	members map[simnet.NodeID]bool
	stash   []func()
}

// schedule is one programmed partition episode, armed by Start.
type schedule struct {
	name       string
	after, dur time.Duration
	members    []simnet.NodeID
}

// Controller owns the fault state shared by every transport it wraps.
// Methods are safe for concurrent use. A nil *Controller is valid and
// injects nothing: Wrap returns its argument untouched.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	links    map[linkKey]*link
	parts    map[string]*partition
	attached map[simnet.NodeID]bool
	sched    []schedule
	timers   map[*time.Timer]struct{}
	started  bool
	closed   bool
}

// New builds a controller from cfg, normalising out-of-range fields: the
// probabilities are clamped to [0,1], inverted delay bounds are swapped,
// and a zero StashCap takes the default.
func New(cfg Config) *Controller {
	clamp := func(p float64) float64 {
		if p < 0 {
			return 0
		}
		if p > 1 {
			return 1
		}
		return p
	}
	cfg.Drop = clamp(cfg.Drop)
	cfg.Duplicate = clamp(cfg.Duplicate)
	cfg.Reorder = clamp(cfg.Reorder)
	if cfg.DelayMax < cfg.DelayMin {
		cfg.DelayMin, cfg.DelayMax = cfg.DelayMax, cfg.DelayMin
	}
	if cfg.StashCap == 0 {
		cfg.StashCap = defaultStashCap
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewChaosMetrics(nil)
	}
	return &Controller{
		cfg:      cfg,
		links:    make(map[linkKey]*link),
		parts:    make(map[string]*partition),
		attached: make(map[simnet.NodeID]bool),
		timers:   make(map[*time.Timer]struct{}),
	}
}

// Wrap layers the controller's faults over t. A nil controller returns t
// unchanged, so the disabled path costs nothing.
func (c *Controller) Wrap(t transport.Transport) transport.Transport {
	if c == nil {
		return t
	}
	return &wrapped{c: c, inner: t}
}

// Metrics returns the controller's fault counters.
func (c *Controller) Metrics() *telemetry.ChaosMetrics { return c.cfg.Metrics }

// Partition activates (or replaces) the named partition immediately. The
// members are cut off from every non-member in both directions; messages
// crossing the boundary are stashed until Heal. With no explicit members
// the partition isolates every id currently attached through this
// controller's wrapped transports — the natural meaning for a single
// process cutting itself off.
func (c *Controller) Partition(name string, members ...simnet.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if len(members) == 0 {
		for id := range c.attached {
			members = append(members, id)
		}
	}
	set := make(map[simnet.NodeID]bool, len(members))
	for _, id := range members {
		set[id] = true
	}
	if _, exists := c.parts[name]; !exists {
		c.cfg.Metrics.Partitions.Add(1)
	}
	c.parts[name] = &partition{members: set}
}

// Heal removes the named partition and re-injects its stashed traffic in
// arrival order. Healing an unknown name is a no-op.
func (c *Controller) Heal(name string) {
	c.mu.Lock()
	p := c.parts[name]
	if p != nil {
		delete(c.parts, name)
		c.cfg.Metrics.Partitions.Add(-1)
	}
	c.mu.Unlock()
	if p == nil {
		return
	}
	for _, fn := range p.stash {
		fn()
	}
	c.cfg.Metrics.Released.Add(uint64(len(p.stash)))
}

// Schedule programs a partition episode: `after` the controller Starts the
// named partition activates, and if dur > 0 it heals dur later. Empty
// members isolate the locally attached ids, resolved at activation time.
func (c *Controller) Schedule(name string, after, dur time.Duration, members ...simnet.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	s := schedule{name: name, after: after, dur: dur, members: members}
	if c.started {
		c.armLocked(s)
		return
	}
	c.sched = append(c.sched, s)
}

// Start arms every scheduled partition relative to now. Faults configured
// through Config flow regardless; Start only concerns schedules.
func (c *Controller) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started || c.closed {
		return
	}
	c.started = true
	for _, s := range c.sched {
		c.armLocked(s)
	}
	c.sched = nil
}

// armLocked sets the activation (and heal) timers for one schedule.
func (c *Controller) armLocked(s schedule) {
	c.afterLocked(s.after, func() {
		c.Partition(s.name, s.members...)
		if s.dur > 0 {
			c.mu.Lock()
			if !c.closed {
				c.afterLocked(s.dur, func() { c.Heal(s.name) })
			}
			c.mu.Unlock()
		}
	})
}

// Close stops every timer and drops all held and stashed traffic. Wrapped
// transports keep working as plain pass-throughs afterwards.
func (c *Controller) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for t := range c.timers {
		t.Stop()
	}
	c.timers = nil
	for range c.parts {
		c.cfg.Metrics.Partitions.Add(-1)
	}
	c.parts = make(map[string]*partition)
	for _, l := range c.links {
		l.held = nil
		l.heldGen++
	}
	c.mu.Unlock()
}

// afterLocked arranges fn to run after d, tracked so Close can cancel it.
// Must be called with c.mu held; fn runs without the lock.
func (c *Controller) afterLocked(d time.Duration, fn func()) {
	if c.closed {
		return
	}
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		c.mu.Lock()
		if c.timers != nil {
			delete(c.timers, t)
		}
		closed := c.closed
		c.mu.Unlock()
		if !closed {
			fn()
		}
	})
	c.timers[t] = struct{}{}
}

// crossingLocked returns the first active partition the (from, to) pair
// straddles, if any.
func (c *Controller) crossingLocked(from, to simnet.NodeID) *partition {
	for _, p := range c.parts {
		if p.members[from] != p.members[to] {
			return p
		}
	}
	return nil
}

// stashLocked queues fn on the partition's bounded stash, evicting the
// oldest entry when full; with stashing disabled the message is cut.
func (c *Controller) stashLocked(p *partition, fn func()) {
	if c.cfg.StashCap < 0 {
		c.cfg.Metrics.PartitionDrops.Inc()
		return
	}
	if len(p.stash) >= c.cfg.StashCap {
		p.stash = p.stash[1:]
		c.cfg.Metrics.StashEvicted.Inc()
	}
	p.stash = append(p.stash, fn)
	c.cfg.Metrics.Stashed.Inc()
}

// linkLocked returns (creating on first use) the fault state of a directed
// link, with its decision stream seeded from Config.Seed and the two ids.
func (c *Controller) linkLocked(from, to simnet.NodeID) *link {
	k := linkKey{from, to}
	l := c.links[k]
	if l == nil {
		l = &link{rng: rand.New(rand.NewSource(linkSeed(c.cfg.Seed, from, to)))}
		c.links[k] = l
	}
	return l
}

// linkSeed mixes the controller seed with both endpoint ids (splitmix64
// finalizer) so every directed link gets an independent, reproducible
// decision stream.
func linkSeed(seed int64, from, to simnet.NodeID) int64 {
	x := uint64(seed) ^ uint64(from)*0x9E3779B97F4A7C15 ^ uint64(to)*0xC2B2AE3D27D4EB4F
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// wrapped is the Transport facade layering one controller over an inner
// transport.
type wrapped struct {
	c     *Controller
	inner transport.Transport
}

// SetReceiver implements transport.Transport. Inbound traffic is subject
// to partitions only (loss, jitter and duplication are send-side faults):
// a message crossing an active partition is stashed and delivered to the
// receiver at heal, exactly like its outbound mirror image.
func (w *wrapped) SetReceiver(recv transport.RecvFunc) {
	c := w.c
	w.inner.SetReceiver(func(from, to simnet.NodeID, msg simnet.Message) {
		c.mu.Lock()
		if !c.closed {
			if p := c.crossingLocked(from, to); p != nil {
				c.stashLocked(p, func() { recv(from, to, msg) })
				c.mu.Unlock()
				return
			}
		}
		c.mu.Unlock()
		recv(from, to, msg)
	})
}

// Attach implements transport.Transport and records the id as local, so
// member-less partitions know whom to isolate.
func (w *wrapped) Attach(id simnet.NodeID) {
	w.c.mu.Lock()
	w.c.attached[id] = true
	w.c.mu.Unlock()
	w.inner.Attach(id)
}

// Detach implements transport.Transport.
func (w *wrapped) Detach(id simnet.NodeID) {
	w.c.mu.Lock()
	delete(w.c.attached, id)
	w.c.mu.Unlock()
	w.inner.Detach(id)
}

// Send implements transport.Transport, running the message through the
// fault pipeline: partition check first (stash), then the seeded per-link
// draws for drop, duplication, reorder and delay. Faulted outcomes return
// nil — the message was "handed to the medium", which then misbehaved.
func (w *wrapped) Send(from, to simnet.NodeID, msg simnet.Message) error {
	c := w.c
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return w.inner.Send(from, to, msg)
	}
	if p := c.crossingLocked(from, to); p != nil {
		c.stashLocked(p, func() { _ = w.inner.Send(from, to, msg) })
		c.mu.Unlock()
		return nil
	}
	l := c.linkLocked(from, to)
	// Draw the whole decision vector in a fixed order so the stream is a
	// pure function of (seed, link, message index).
	drop := c.cfg.Drop > 0 && l.rng.Float64() < c.cfg.Drop
	dup := c.cfg.Duplicate > 0 && l.rng.Float64() < c.cfg.Duplicate
	reorder := c.cfg.Reorder > 0 && l.rng.Float64() < c.cfg.Reorder
	var delay time.Duration
	if c.cfg.DelayMax > 0 {
		delay = c.cfg.DelayMin +
			time.Duration(l.rng.Float64()*float64(c.cfg.DelayMax-c.cfg.DelayMin))
	}
	if drop {
		c.cfg.Metrics.Dropped.Inc()
		c.mu.Unlock()
		return nil
	}
	deliver := func() { _ = w.inner.Send(from, to, msg) }

	// Assemble the action list; a held-back predecessor flushes behind
	// this message (the swap), a fresh reorder draw holds this one back.
	// Whenever the list is non-empty its head delivers the current
	// message, so the undelayed path can run it synchronously below and
	// surface the transport's error.
	var now []func()
	if held := l.takeHeldLocked(); held != nil {
		c.cfg.Metrics.Reordered.Inc()
		now = append(now, deliver, held)
	} else if reorder {
		l.holdLocked(c, deliver)
	} else {
		now = append(now, deliver)
	}
	if dup {
		c.cfg.Metrics.Duplicated.Inc()
		now = append(now, deliver)
	}
	if delay > 0 && len(now) > 0 {
		c.cfg.Metrics.Delayed.Inc()
		for _, fn := range now {
			c.afterLocked(delay, fn)
		}
		now = nil
	}
	c.mu.Unlock()
	if len(now) == 0 {
		return nil
	}
	err := w.inner.Send(from, to, msg)
	for _, fn := range now[1:] {
		fn()
	}
	return err
}

// Flush implements transport.Transport by flushing the inner carrier. Held,
// delayed and stashed messages are not queued sends: they reach the inner
// carrier later, from a timer or Heal, and its own deadline writes them.
func (w *wrapped) Flush() { w.inner.Flush() }

// Close implements transport.Transport. It closes only the inner
// transport; the controller (possibly shared by other wrappers) is closed
// separately via Controller.Close.
func (w *wrapped) Close() error { return w.inner.Close() }

// takeHeldLocked removes and returns the link's held-back message, if any,
// invalidating its pending flush.
func (l *link) takeHeldLocked() func() {
	held := l.held
	if held != nil {
		l.held = nil
		l.heldGen++
	}
	return held
}

// holdLocked parks deliver on the link until the next message swaps with
// it, or the flush window expires and it goes out as-is.
func (l *link) holdLocked(c *Controller, deliver func()) {
	l.held = deliver
	l.heldGen++
	gen := l.heldGen
	c.afterLocked(reorderFlush, func() {
		c.mu.Lock()
		var fn func()
		if l.heldGen == gen && l.held != nil {
			fn = l.held
			l.held = nil
			l.heldGen++
		}
		c.mu.Unlock()
		if fn != nil {
			fn()
		}
	})
}
