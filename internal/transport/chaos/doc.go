// Package chaos injects network faults into the real transports. A
// Controller wraps any transport.Transport (Loopback, UDP) and perturbs the
// traffic flowing through it: per-link message loss, latency jitter,
// duplication, reordering, and named partitions that can be scheduled ahead
// of time and healed, releasing the traffic they stashed.
//
// The package exists so the failure-recovery machinery of internal/core and
// internal/deploy can be exercised against the same faults the paper's §III-D
// assumes — churn, loss and temporary isolation — without leaving the
// process or touching iptables. Everything is seeded-deterministic: two
// controllers built from the same Config observing the same per-link message
// sequence make the same drop/duplicate/delay/reorder decisions, so chaos
// tests replay exactly.
//
// # Composition
//
//	ctl := chaos.New(chaos.Config{Seed: 7, Drop: 0.2})
//	host := transport.NewHost(eng, ctl.Wrap(bus.Endpoint()), nil)
//	node := deploy.New(host, deploy.Config{...})
//
// Wrap on a nil *Controller returns the transport untouched, so callers can
// thread an optional controller through without branching; the disabled path
// adds zero overhead (a benchmark in this package holds it to that).
//
// # Partitions
//
// A named partition isolates a member set from everyone else: messages with
// exactly one endpoint inside the set are stashed (bounded FIFO) while the
// partition is active and re-injected in order when it heals, modelling a
// link cut whose in-flight traffic eventually arrives. Heal-time release is
// what lets soak tests assert "stashed-or-retried" delivery after a cut.
// Partitions start immediately (Partition) or on a schedule (Schedule /
// scenario specs) relative to Start.
//
// # Scenarios
//
// ParseScenario turns a compact spec — e.g.
//
//	drop=0.2,dup=0.05,delay=5ms-30ms,reorder=0.1,seed=7;island@5s+10s
//
// — into a Config plus scheduled partitions, so cmd/vitis-node can load a
// fault plan from a flag or the VITIS_CHAOS environment variable. See
// ParseScenario for the grammar and docs/OPERATIONS.md for worked examples.
package chaos
