package experiments

import (
	"testing"

	"vitis/internal/simnet"
	"vitis/internal/workload"
)

func tinySubs(t *testing.T, pat workload.Pattern) *workload.Subscriptions {
	t.Helper()
	sc := Tiny()
	subs, err := sc.subscriptions(pat)
	if err != nil {
		t.Fatal(err)
	}
	return subs
}

func TestRunRequiresSubs(t *testing.T) {
	if _, err := Run(RunConfig{System: Vitis}); err == nil {
		t.Fatal("expected error without Subs")
	}
}

func TestRunUnknownSystem(t *testing.T) {
	if _, err := Run(RunConfig{System: System(99), Subs: tinySubs(t, workload.Random)}); err == nil {
		t.Fatal("expected error for unknown system")
	}
}

func TestRunVitisDelivers(t *testing.T) {
	res, err := Run(RunConfig{
		System: Vitis, Subs: tinySubs(t, workload.HighCorrelation),
		Events: 30, WarmupRounds: 35, MeasureRounds: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.HitRatio < 0.99 {
		t.Errorf("Vitis hit ratio %.3f, want ~1", res.HitRatio)
	}
	if res.AvgDelay <= 0 {
		t.Errorf("AvgDelay = %g", res.AvgDelay)
	}
	if res.Oracle.Events() != 30 {
		t.Errorf("tracked %d events", res.Oracle.Events())
	}
}

func TestRunRVRDelivers(t *testing.T) {
	res, err := Run(RunConfig{
		System: RVR, Subs: tinySubs(t, workload.Random),
		Events: 30, WarmupRounds: 35, MeasureRounds: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.HitRatio < 0.99 {
		t.Errorf("RVR hit ratio %.3f, want ~1", res.HitRatio)
	}
}

func TestRunOPTUnboundedDelivers(t *testing.T) {
	res, err := Run(RunConfig{
		System: OPT, Subs: tinySubs(t, workload.HighCorrelation),
		Events: 30, WarmupRounds: 35, MeasureRounds: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.HitRatio < 0.95 {
		t.Errorf("OPT (unbounded) hit ratio %.3f, want near 1", res.HitRatio)
	}
	if res.Overhead != 0 {
		t.Errorf("OPT overhead %.3f, must be 0", res.Overhead)
	}
}

func TestVitisBeatsRVROnOverhead(t *testing.T) {
	// The paper's headline: with correlated subscriptions Vitis has far
	// less relay traffic than RVR at the same node degree.
	subs := tinySubs(t, workload.HighCorrelation)
	v, err := Run(RunConfig{System: Vitis, Subs: subs, Events: 40, WarmupRounds: 35, MeasureRounds: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(RunConfig{System: RVR, Subs: subs, Events: 40, WarmupRounds: 35, MeasureRounds: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v.HitRatio < 0.99 || r.HitRatio < 0.99 {
		t.Fatalf("hit ratios: vitis %.3f rvr %.3f", v.HitRatio, r.HitRatio)
	}
	if v.Overhead >= r.Overhead {
		t.Errorf("Vitis overhead %.3f not below RVR %.3f", v.Overhead, r.Overhead)
	}
}

func TestDegreesBounded(t *testing.T) {
	subs := tinySubs(t, workload.Random)
	res, err := Run(RunConfig{System: Vitis, Subs: subs, RTSize: 10, Events: 5, WarmupRounds: 25, MeasureRounds: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range res.Degrees {
		if d > 10 {
			t.Errorf("node %d degree %d > 10", i, d)
		}
	}
	if len(res.Degrees) != subs.Nodes {
		t.Errorf("got %d degrees for %d nodes", len(res.Degrees), subs.Nodes)
	}
}

func TestRunChurnSmoke(t *testing.T) {
	sc := Tiny()
	subs, err := workload.Generate(workload.SyntheticConfig{
		Nodes: sc.ChurnNodes, Topics: sc.Topics, SubsPerNode: sc.SubsPerNode,
		Buckets: sc.Buckets, Pattern: workload.LowCorrelation, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := workload.GenerateChurn(workload.ChurnConfig{
		Nodes:       sc.ChurnNodes,
		Duration:    sc.ChurnDuration,
		MeanSession: sc.ChurnDuration / 3,
		MeanOffline: sc.ChurnDuration / 10,
		RampWindow:  sc.ChurnDuration / 4,
		Seed:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunChurn(ChurnRunConfig{
		System: Vitis, Subs: subs, Trace: trace,
		PublishEvery: sc.ChurnPublishEvery, Bucket: sc.ChurnBucket, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Oracle.Events() == 0 {
		t.Error("no events published under churn")
	}
	if res.Oracle.HitRatio() < 0.7 {
		t.Errorf("churn hit ratio %.3f suspiciously low", res.Oracle.HitRatio())
	}
	if len(res.SizeSeries) == 0 {
		t.Error("no network-size samples")
	}
	var peak float64
	for _, p := range res.SizeSeries {
		if p.Value > peak {
			peak = p.Value
		}
	}
	if peak < float64(sc.ChurnNodes)/4 {
		t.Errorf("network peaked at %.0f of %d nodes", peak, sc.ChurnNodes)
	}
}

func TestRunChurnValidation(t *testing.T) {
	if _, err := RunChurn(ChurnRunConfig{System: Vitis}); err == nil {
		t.Error("expected error without subs/trace")
	}
}

func TestRunDeterministic(t *testing.T) {
	subs := tinySubs(t, workload.LowCorrelation)
	cfg := RunConfig{System: Vitis, Subs: subs, Events: 20, WarmupRounds: 25, MeasureRounds: 8, Seed: 5}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.HitRatio != b.HitRatio || a.Overhead != b.Overhead || a.AvgDelay != b.AvgDelay {
		t.Errorf("nondeterministic runs: %+v vs %+v", a, b)
	}
}

func TestSystemString(t *testing.T) {
	if Vitis.String() != "Vitis" || RVR.String() != "RVR" || OPT.String() != "OPT" {
		t.Error("bad system names")
	}
	if System(9).String() == "" {
		t.Error("unknown system should render")
	}
}

func TestScaleConfigsGenerate(t *testing.T) {
	for _, sc := range []Scale{Default(), Paper(), Tiny()} {
		for _, pat := range patterns {
			if _, err := sc.subscriptions(pat); err != nil {
				t.Errorf("scale %+v pattern %v: %v", sc.Nodes, pat, err)
			}
		}
	}
}

var _ = simnet.Second // keep simnet imported for the churn literals above

func TestChurnVitisAtLeastMatchesRVR(t *testing.T) {
	// Fig. 12's qualitative claim: under churn with a flash crowd, Vitis's
	// hit ratio holds up at least as well as RVR's.
	if testing.Short() {
		t.Skip("two churn runs")
	}
	sc := Tiny()
	subs, err := workload.Generate(workload.SyntheticConfig{
		Nodes: sc.ChurnNodes, Topics: sc.Topics, SubsPerNode: sc.SubsPerNode,
		Buckets: sc.Buckets, Pattern: workload.LowCorrelation, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := workload.GenerateChurn(workload.ChurnConfig{
		Nodes:            sc.ChurnNodes,
		Duration:         sc.ChurnDuration,
		MeanSession:      sc.ChurnDuration / 3,
		MeanOffline:      sc.ChurnDuration / 10,
		RampWindow:       sc.ChurnDuration / 4,
		FlashCrowdAt:     sc.ChurnFlashAt,
		FlashCrowdFrac:   0.3,
		FlashCrowdWindow: sc.ChurnDuration / 60,
		Seed:             3,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(sys System) float64 {
		res, err := RunChurn(ChurnRunConfig{
			System: sys, Subs: subs, Trace: trace,
			PublishEvery: sc.ChurnPublishEvery, Bucket: sc.ChurnBucket, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Oracle.HitRatio()
	}
	vit := run(Vitis)
	rv := run(RVR)
	t.Logf("churn hit ratios: Vitis %.3f, RVR %.3f", vit, rv)
	if vit < 0.85 {
		t.Errorf("Vitis churn hit ratio %.3f below 0.85", vit)
	}
	if vit < rv-0.05 {
		t.Errorf("Vitis (%.3f) materially worse than RVR (%.3f) under churn", vit, rv)
	}
}
