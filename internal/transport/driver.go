package transport

import (
	"context"
	"time"

	"vitis/internal/simnet"
)

// idlePoll is how long the driver sleeps when the engine has no pending
// events; an inbound message wakes it immediately regardless.
const idlePoll = 100 * time.Millisecond

// Driver executes a Host's discrete-event engine against the wall clock:
// one simulated millisecond per real millisecond. Timers the protocols set
// with Engine.Every/Schedule fire at (approximately) the right real time,
// and inbound transport messages are dispatched on the driver goroutine, so
// protocol code keeps the single-threaded execution model it has in the
// simulator.
//
// One pass of Run's loop is a turn: fire the due timers, drain the inbox,
// then Flush the host. Everything the turn sent to one peer — a heartbeat's
// profile and the T-Man request to the same friend, the forwards caused by
// one inbox drain, a catch-up page — leaves a batching transport as one
// datagram, written here, on the protocol goroutine, without waiting for a
// timer.
type Driver struct {
	host  *Host
	start time.Time
}

// NewDriver prepares a driver for an asynchronous Host (one built with
// NewHost). It panics on a sync Host, which needs no driver.
func NewDriver(h *Host) *Driver {
	if h.inbox == nil {
		panic("transport: NewDriver requires an async Host (NewHost)")
	}
	return &Driver{host: h}
}

// Run pumps the engine until ctx is cancelled. It must be the only
// goroutine running the engine.
func (d *Driver) Run(ctx context.Context) {
	d.start = time.Now()
	eng := d.host.eng
	timer := time.NewTimer(idlePoll)
	defer timer.Stop()
	for {
		// Advance virtual time to "now", firing due timers, drain any
		// inbound messages that arrived in the meantime, and put what both
		// produced on the wire.
		eng.RunUntil(d.simNow())
	drain:
		for {
			select {
			case env := <-d.host.inbox:
				d.host.tel.InboxDepth.Add(-1)
				d.host.dispatch(env.from, env.to, env.msg)
			default:
				break drain
			}
		}
		d.host.Flush()

		wait := idlePoll
		if next, ok := eng.NextAt(); ok {
			wait = time.Until(d.start.Add(time.Duration(next) * time.Millisecond))
			if wait <= 0 {
				// More events already due; loop without sleeping, but
				// still give cancellation a chance.
				if ctx.Err() != nil {
					return
				}
				continue
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-ctx.Done():
			return
		case env := <-d.host.inbox:
			d.host.tel.InboxDepth.Add(-1)
			eng.RunUntil(d.simNow())
			d.host.dispatch(env.from, env.to, env.msg)
		case <-timer.C:
		}
	}
}

// simNow maps the wall clock to engine time (milliseconds since Run).
func (d *Driver) simNow() simnet.Time {
	return simnet.Time(time.Since(d.start) / time.Millisecond)
}
