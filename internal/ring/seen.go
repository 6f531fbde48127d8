package ring

// seenBeats is how many heartbeats one dedup generation lives;
// dissemination completes within a handful of beats, so 30 gives a wide
// safety margin.
const seenBeats = 30

// Seen deduplicates events with bounded memory: membership is checked
// against two generations and inserts go to the current one; rotation
// drops the older generation. An event older than two rotation periods can
// in principle be re-accepted, but notifications only live for the
// duration of a dissemination (seconds), far below the rotation period.
type Seen struct {
	cur, prev map[EventID]bool
	beats     int
}

// NewSeen returns an empty dedup set.
func NewSeen() *Seen {
	return &Seen{cur: make(map[EventID]bool), prev: make(map[EventID]bool)}
}

// Has reports whether ev is in either generation.
func (s *Seen) Has(ev EventID) bool { return s.cur[ev] || s.prev[ev] }

// Add records ev in the current generation.
func (s *Seen) Add(ev EventID) { s.cur[ev] = true }

// Len is the number of events remembered across both generations.
func (s *Seen) Len() int { return len(s.cur) + len(s.prev) }

// Rotate discards the older generation.
func (s *Seen) Rotate() {
	s.prev = s.cur
	s.cur = make(map[EventID]bool)
}

// Tick counts one heartbeat and rotates every seenBeats of them. It
// reports whether it rotated, so state keyed by the same events can be
// evicted on the same cadence.
func (s *Seen) Tick() bool {
	s.beats++
	if s.beats < seenBeats {
		return false
	}
	s.beats = 0
	s.Rotate()
	return true
}
