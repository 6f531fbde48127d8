package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"vitis/internal/core"
	"vitis/internal/experiments"
	"vitis/internal/simnet"
	"vitis/internal/store"
	"vitis/internal/telemetry"
	"vitis/internal/transport"
	"vitis/internal/wire"
)

// Direct timed calls into public functions, run after a traced window.
// Each returns the best of microRounds rounds: machine noise only ever adds
// time.
const microRounds = 5

func bestOf(round func() float64) float64 {
	best := round()
	for i := 1; i < microRounds; i++ {
		if v := round(); v < best {
			best = v
		}
	}
	return best
}

// wireCosts replays the captured messages through the codec, so the type
// mix is the workload's own.
func wireCosts(corpus []capturedMsg) (encodeNs, decodeNs, bytesPerFrame float64, err error) {
	if len(corpus) == 0 {
		return 0, 0, 0, nil
	}
	frames := make([][]byte, len(corpus))
	total := 0
	for i, c := range corpus {
		if frames[i], err = wire.Encode(c.from, c.to, c.msg); err != nil {
			return 0, 0, 0, fmt.Errorf("encoding captured %T: %w", c.msg, err)
		}
		total += len(frames[i])
	}
	var scratch []byte
	encodeNs = bestOf(func() float64 {
		t0 := time.Now()
		for _, c := range corpus {
			scratch, _ = wire.AppendEncode(scratch[:0], c.from, c.to, c.msg) // encoded once above without error
		}
		return float64(time.Since(t0)) / float64(len(corpus))
	})
	decodeNs = bestOf(func() float64 {
		t0 := time.Now()
		for _, f := range frames {
			if _, _, _, derr := wire.Decode(f); derr != nil {
				err = derr
			}
		}
		return float64(time.Since(t0)) / float64(len(frames))
	})
	return encodeNs, decodeNs, float64(total) / float64(len(frames)), err
}

// scheduleCost times one Schedule plus the RunUntil that executes it on an
// engine whose queue already holds depth events, the depth the run saw.
func scheduleCost(depth int) float64 {
	eng := simnet.NewEngine(1)
	for i := 0; i < depth; i++ {
		eng.Schedule(simnet.Hour+simnet.Time(i), func() {})
	}
	const n = 200_000
	return bestOf(func() float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			eng.Schedule(1, func() {})
			eng.RunUntil(eng.Now() + 1)
		}
		return float64(time.Since(t0)) / n
	})
}

func telemetryCosts() (counterIncNs, histogramObserveNs float64) {
	m := telemetry.NewNodeMetrics(telemetry.NewRegistry())
	const n = 1_000_000
	counterIncNs = bestOf(func() float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			m.Notifications.Inc()
		}
		return float64(time.Since(t0)) / n
	})
	histogramObserveNs = bestOf(func() float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			m.DeliveryLatency.Observe(float64(i%100) / 1000)
		}
		return float64(time.Since(t0)) / n
	})
	return counterIncNs, histogramObserveNs
}

type storeCost struct {
	appendUs, appendFsyncUs, readUsPerRecord, bytesPerRecord float64
}

// storeCosts times a disk store under dir with records shaped like the
// workload's (metadata-only events): batched fsync as vitis-node defaults,
// fsync on every append, and a paged read of everything appended.
func storeCosts(dir string) (c storeCost, err error) {
	tmp, err := os.MkdirTemp(dir, "storecost-")
	if err != nil {
		return c, err
	}
	defer os.RemoveAll(tmp)
	topic := core.Topic("storecost")
	fill := func(sub string, fsyncEvery, n int) (us float64, ds *store.DiskStore, m *telemetry.StoreMetrics, err error) {
		m = telemetry.NewStoreMetrics(nil)
		ds, err = store.OpenDisk(tmp+"/"+sub, store.DiskConfig{FsyncEvery: fsyncEvery, Metrics: m})
		if err != nil {
			return 0, nil, nil, err
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err = ds.Append(store.Record{Topic: topic, Publisher: 7, Seq: uint64(i), Hops: 2, Time: int64(i)}); err != nil {
				ds.Close()
				return 0, nil, nil, err
			}
		}
		return float64(time.Since(t0)) / 1e3 / float64(n), ds, m, nil
	}
	var batched *store.DiskStore
	var met *telemetry.StoreMetrics
	const n = 20_000
	if c.appendUs, batched, met, err = fill("batched", 0, n); err != nil {
		return c, err
	}
	c.bytesPerRecord = float64(met.AppendedBytes.Value()) / float64(met.Appends.Value())
	c.readUsPerRecord = bestOf(func() float64 {
		t0 := time.Now()
		read, after := 0, uint64(0)
		for {
			page, rerr := batched.ReadRange(topic, after, 16<<10)
			if rerr != nil {
				err = rerr
				break
			}
			read += len(page.Records)
			after = page.Next
			if !page.More {
				break
			}
		}
		if read != n && err == nil {
			err = fmt.Errorf("store read back %d of %d records", read, n)
		}
		return float64(time.Since(t0)) / 1e3 / n
	})
	if cerr := batched.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return c, err
	}
	var synced *store.DiskStore
	if c.appendFsyncUs, synced, _, err = fill("synced", 1, 200); err != nil {
		return c, err
	}
	return c, synced.Close()
}

// onewayProbe sends timestamped notifications between two fresh UDP
// transports on loopback at a low rate and reports the one-way time: the
// per-peer flush wait plus the socket, with no queueing behind other work.
func onewayProbe() (p50us, p99us float64, err error) {
	a, err := transport.ListenUDP("127.0.0.1:0", transport.UDPConfig{})
	if err != nil {
		return 0, 0, err
	}
	defer a.Close()
	b, err := transport.ListenUDP("127.0.0.1:0", transport.UDPConfig{})
	if err != nil {
		return 0, 0, err
	}
	defer b.Close()
	ids := nodeIDs(2)
	const probes = 300
	var mu sync.Mutex
	sent := make([]time.Time, probes)
	var us []float64
	a.SetReceiver(func(_, _ simnet.NodeID, _ simnet.Message) {})
	b.SetReceiver(func(_, _ simnet.NodeID, msg simnet.Message) {
		now := time.Now()
		if n, ok := msg.(core.Notification); ok && n.Event.Seq < probes {
			mu.Lock()
			us = append(us, float64(now.Sub(sent[n.Event.Seq]))/1e3)
			mu.Unlock()
		}
	})
	a.Attach(ids[0])
	b.Attach(ids[1])
	if err := a.SetPeer(ids[1], b.LocalAddr().String()); err != nil {
		return 0, 0, err
	}
	for i := 0; i < probes; i++ {
		mu.Lock()
		sent[i] = time.Now()
		mu.Unlock()
		if err := a.Send(ids[0], ids[1], core.Notification{Event: core.EventID{Publisher: ids[0], Seq: uint64(i)}, Hops: 1}); err != nil {
			return 0, 0, err
		}
		time.Sleep(3 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(us) < probes*9/10 {
		return 0, 0, fmt.Errorf("one-way probe: %d of %d datagrams arrived", len(us), probes)
	}
	return percentile(us, 0.5), percentile(us, 0.99), nil
}

// rvrRun times one run of the RVR baseline at a simulator workload's
// population: its share of the fig-5 wall clock.
func rvrRun(cfg simConfig, seed int64) (float64, error) {
	subs, err := cfg.subscriptions(seed)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	_, err = experiments.Run(experiments.RunConfig{
		System: experiments.RVR, Subs: subs, Events: max(cfg.events, cfg.perTopic*cfg.topics),
		WarmupRounds: cfg.warmRounds, MeasureRounds: cfg.steadyRounds, DrainRounds: cfg.drainRounds,
		Seed: seed,
	})
	return time.Since(t0).Seconds(), err
}
