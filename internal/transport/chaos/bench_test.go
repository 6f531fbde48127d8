package chaos

import (
	"testing"

	"vitis/internal/simnet"
	"vitis/internal/transport"
)

// blackhole is the cheapest possible Transport, so the benchmarks below
// measure wrapper overhead rather than carrier cost.
type blackhole struct{ recv transport.RecvFunc }

func (b *blackhole) SetReceiver(f transport.RecvFunc)                      { b.recv = f }
func (b *blackhole) Attach(simnet.NodeID)                                  {}
func (b *blackhole) Detach(simnet.NodeID)                                  {}
func (b *blackhole) Send(from, to simnet.NodeID, msg simnet.Message) error { return nil }
func (b *blackhole) Flush()                                                {}
func (b *blackhole) Close() error                                          { return nil }

// BenchmarkSendBare is the baseline: the carrier alone.
func BenchmarkSendBare(b *testing.B) {
	tr := &blackhole{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Send(1, 2, i)
	}
}

// BenchmarkSendNilController proves the disabled path is free: a nil
// *Controller's Wrap returns the carrier itself, so a Send through it is the
// bare Send — same code, same allocations.
func BenchmarkSendNilController(b *testing.B) {
	var ctl *Controller
	tr := ctl.Wrap(&blackhole{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Send(1, 2, i)
	}
}

// BenchmarkSendZeroFaults measures the wrapper with a live controller but no
// faults configured: the cost of the per-send fault draws.
func BenchmarkSendZeroFaults(b *testing.B) {
	ctl := New(Config{Seed: 1})
	defer ctl.Close()
	tr := ctl.Wrap(&blackhole{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Send(1, 2, i)
	}
}
