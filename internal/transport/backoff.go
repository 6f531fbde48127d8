package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Backoff computes bounded exponential retry delays with jitter: each
// delay doubles the one before up to Max and is drawn uniformly from
// [d/2, d]. It is pure state-free arithmetic — callers keep the attempt
// counter — so one value can be shared by any number of retry loops. The
// zero value is usable and takes the defaults noted on the fields.
//
// Jittered retries are the paper's §III-D failure posture applied to
// control traffic: a burst of nodes rejoining after a partition must not
// retry in lockstep, or the bootstrap point sees the thundering herd at
// every interval. Both internal/deploy's join and rejoin requests and
// UDP.Resolve lean on this type.
type Backoff struct {
	// Base is the first delay (attempt 0). Default 100ms.
	Base time.Duration
	// Max caps the grown delay before jitter. Default 5s.
	Max time.Duration
}

// backoffJitter is the fraction of each delay that is randomised.
const backoffJitter = 0.5

// Delay returns the delay before retry number attempt (0-based). A nil rng
// disables jitter, which keeps simulated and tested schedules
// reproducible.
func (b Backoff) Delay(attempt int, rng *rand.Rand) time.Duration {
	base, max := b.Base, b.Max
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	d := float64(base)
	for i := 0; i < attempt && d < float64(max); i++ {
		d *= 2
	}
	if d > float64(max) {
		d = float64(max)
	}
	if rng != nil {
		d = d * (1 - backoffJitter*rng.Float64())
	}
	return time.Duration(d)
}

// ResolveError reports why UDP.Resolve failed, distinguishing the two
// failure modes callers treat differently: a Timeout (the peer never
// answered — retry later, maybe against another bootstrap address) versus
// a socket or addressing failure in Err (retrying without fixing the
// configuration will not help).
type ResolveError struct {
	// Addr is the address being resolved.
	Addr string
	// Timeout is true when the deadline expired without an answer.
	Timeout bool
	// Err is the underlying addressing or socket error, when one exists.
	Err error
}

// Error implements error.
func (e *ResolveError) Error() string {
	switch {
	case e.Timeout:
		return fmt.Sprintf("transport: resolve %s: timed out", e.Addr)
	case e.Err != nil:
		return fmt.Sprintf("transport: resolve %s: %v", e.Addr, e.Err)
	default:
		return fmt.Sprintf("transport: resolve %s failed", e.Addr)
	}
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *ResolveError) Unwrap() error { return e.Err }

// IsResolveTimeout reports whether err is a ResolveError caused by the
// deadline expiring rather than a socket failure.
func IsResolveTimeout(err error) bool {
	var re *ResolveError
	return errors.As(err, &re) && re.Timeout
}
