package ring

import (
	"vitis/internal/simnet"
	"vitis/internal/tman"
)

// StaleAge is the number of missed heartbeats after which a neighbour is
// evicted from the routing table (§III-D).
const StaleAge = 5

// Liveness is the heartbeat failure detector over a routing table
// (§III-D). Every table entry ages by one per heartbeat and is reset when
// the caller hears from it; an entry more than StaleAge beats old is
// evicted and tombstoned for three times that long, because its descriptor
// keeps circulating in gossip buffers and must not be re-selected
// meanwhile. What counts as hearing from a peer, and what else eviction
// means, is the caller's.
type Liveness struct {
	tombstone simnet.Time
	ages      map[NodeID]int
	suspects  map[NodeID]simnet.Time
	ids       []NodeID // Beat's table snapshot
}

// NewLiveness returns a detector for heartbeats of the given period.
func NewLiveness(period simnet.Time) *Liveness {
	return &Liveness{
		tombstone: 3 * StaleAge * period,
		ages:      make(map[NodeID]int),
		suspects:  make(map[NodeID]simnet.Time),
	}
}

// Beat runs one heartbeat round over xchg's routing table, in table order.
// Each entry ages by one beat: an entry past StaleAge is removed from the
// table, tombstoned and handed to evicted (nil for no action); every other
// entry is handed to alive, which sends it the caller's heartbeat. Then
// tombstones that ran out and the ages of peers no longer in the table are
// dropped.
func (l *Liveness) Beat(xchg *tman.Exchanger, now simnet.Time, evicted, alive func(NodeID)) {
	// Snapshot the table ids: eviction mutates the table while we iterate.
	ids := l.ids[:0]
	for _, d := range xchg.RTRef() {
		ids = append(ids, d.ID)
	}
	l.ids = ids
	for _, id := range ids {
		l.ages[id]++
		if l.ages[id] <= StaleAge {
			alive(id)
			continue
		}
		xchg.Remove(id)
		delete(l.ages, id)
		l.Suspect(id, now)
		if evicted != nil {
			evicted(id)
		}
	}
	for id, until := range l.suspects {
		if until <= now {
			delete(l.suspects, id)
		}
	}
	for id := range l.ages {
		if !xchg.Contains(id) {
			delete(l.ages, id)
		}
	}
}

// Heard resets id's age: it answered.
func (l *Liveness) Heard(id NodeID) { l.ages[id] = 0 }

// Age is the number of heartbeats since id was last heard.
func (l *Liveness) Age(id NodeID) int { return l.ages[id] }

// Suspect tombstones id as of now.
func (l *Liveness) Suspect(id NodeID, now simnet.Time) { l.suspects[id] = now + l.tombstone }

// Unsuspect lifts id's tombstone: it speaks, so it lives.
func (l *Liveness) Unsuspect(id NodeID) { delete(l.suspects, id) }

// Suspected reports whether id's tombstone is still in force.
func (l *Liveness) Suspected(id NodeID, now simnet.Time) bool {
	until, ok := l.suspects[id]
	return ok && until > now
}

// DropSuspects filters the tombstoned candidates out of a selection buffer
// in place.
func (l *Liveness) DropSuspects(buffer []tman.Descriptor, now simnet.Time) []tman.Descriptor {
	live := buffer[:0]
	for _, d := range buffer {
		if !l.Suspected(d.ID, now) {
			live = append(live, d)
		}
	}
	return live
}
