// Package transport runs the Vitis protocol stacks over real message
// carriers. It is the deployment-side counterpart of internal/simnet: the
// protocols are written against the simnet.Net seam, and this package
// provides implementations of that seam whose messages travel through the
// internal/wire codec instead of staying in-memory Go values.
//
// The pieces compose as follows:
//
//   - Transport moves messages between processes (or fakes doing so). Three
//     implementations exist: Sim (the existing simulator network behind the
//     same interface), Loopback (in-process, but every message round-trips
//     through the wire codec), and UDP (a real socket). UDP is a thin
//     shell — the socket, a read loop, one timer goroutine and one mutex —
//     around udpCore, which holds the address book, stash, bounded
//     per-peer batch buffers, hint ledgers, envelopes and reaper. The core
//     has no socket, goroutine, lock or clock: every call takes now and
//     returns what to write, so its tests run on a virtual clock.
//   - Host implements simnet.Net on top of a Transport, so core.Node,
//     sampling, tman and bootstrap run unchanged.
//   - Driver executes a Host's discrete-event engine against the wall
//     clock, turning the simulator's virtual timers into real ones and
//     injecting inbound transport messages as events. It ends every turn
//     with Transport.Flush, which is when a batching carrier writes.
//
// The simulation path is untouched: experiments keep using *simnet.Network
// directly, so simulated runs remain byte-identical and deterministic.
package transport

import (
	"vitis/internal/simnet"
)

// RecvFunc consumes an inbound message addressed to a node hosted locally.
// Implementations of Transport call it from their receive goroutines; the
// Host behind it is responsible for re-serialising delivery onto its
// engine's goroutine.
type RecvFunc func(from, to simnet.NodeID, msg simnet.Message)

// Transport moves protocol messages between nodes. Implementations must be
// safe for concurrent use: Send is called from the host's driver goroutine
// while receives arrive from transport-owned goroutines.
type Transport interface {
	// SetReceiver installs the inbound sink. It must be called (by the
	// Host) before traffic flows; messages arriving earlier are dropped.
	SetReceiver(recv RecvFunc)
	// Attach declares id as hosted locally, e.g. so the transport can
	// announce it to peers or register it with a shared bus.
	Attach(id simnet.NodeID)
	// Detach withdraws a local id.
	Detach(id simnet.NodeID)
	// Send transmits msg to the node `to`. A nil error means the message
	// was handed to the medium (delivery itself is best-effort, exactly
	// like UDP) or queued for the next Flush; an error means it was
	// definitely not sent.
	Send(from, to simnet.NodeID, msg simnet.Message) error
	// Flush puts on the medium whatever earlier Sends left queued. The
	// Driver calls it once per turn. It is idempotent, cheap when nothing is
	// queued and safe from any goroutine; a carrier that queues must also
	// flush on its own within a bounded time, for senders nobody drives.
	// Carriers that send at once implement it as a no-op.
	Flush()
	// Close releases sockets and goroutines. Sends after Close fail.
	Close() error
}
