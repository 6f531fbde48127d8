package experiments

import (
	"fmt"
	"math/rand"

	"vitis/internal/metrics"
	"vitis/internal/simnet"
	"vitis/internal/stats"
	"vitis/internal/tablefmt"
	"vitis/internal/workload"
)

// patterns are the three synthetic subscription models of §IV-A, in the
// order the figures plot them.
var patterns = []workload.Pattern{workload.HighCorrelation, workload.LowCorrelation, workload.Random}

func (s Scale) subscriptions(p workload.Pattern) (*workload.Subscriptions, error) {
	return workload.Generate(workload.SyntheticConfig{
		Nodes:       s.Nodes,
		Topics:      s.Topics,
		SubsPerNode: s.SubsPerNode,
		Buckets:     s.Buckets,
		Pattern:     p,
		Seed:        s.Seed,
	})
}

// patternSubscriptions generates one subscription assignment per synthetic
// pattern, in pattern order. Generated once, before a sweep's jobs are built,
// and shared read-only across concurrent runs.
func (s Scale) patternSubscriptions() ([]*workload.Subscriptions, error) {
	out := make([]*workload.Subscriptions, len(patterns))
	for i, pat := range patterns {
		subs, err := s.subscriptions(pat)
		if err != nil {
			return nil, err
		}
		out[i] = subs
	}
	return out, nil
}

func (s Scale) runCfg() RunConfig {
	return RunConfig{
		Events:        s.Events,
		WarmupRounds:  s.WarmupRounds,
		MeasureRounds: s.MeasureRounds,
		Seed:          s.Seed,
	}
}

// Fig4Friends reproduces Fig. 4: traffic overhead (a) and propagation delay
// (b) as the 15-entry routing table shifts from all sw-neighbors to mostly
// friends. RVR, which has no friend links, is the flat comparison line.
func Fig4Friends(sc Scale) (*tablefmt.Table, error) {
	const rtSize = 15
	tab := &tablefmt.Table{
		Title:   "Fig. 4 — varying number of friends (RT=15)",
		Columns: []string{"friends", "system", "pattern", "hit", "overhead", "delay(hops)"},
	}

	rvrSubs, err := sc.subscriptions(workload.Random)
	if err != nil {
		return nil, err
	}
	subsByPat, err := sc.patternSubscriptions()
	if err != nil {
		return nil, err
	}

	friendCounts := []int{0, 2, 4, 6, 8, 10, 12}
	var labels []string
	var cfgs []RunConfig
	// Job 0 is the RVR reference (no friend dimension); the Vitis sweep
	// follows in row order.
	cfg := sc.runCfg()
	cfg.System = RVR
	cfg.Subs = rvrSubs
	cfg.RTSize = rtSize
	labels = append(labels, "fig4 RVR reference")
	cfgs = append(cfgs, cfg)
	for _, friends := range friendCounts {
		for pi, pat := range patterns {
			cfg := sc.runCfg()
			cfg.System = Vitis
			cfg.Subs = subsByPat[pi]
			cfg.RTSize = rtSize
			cfg.SWLinks = rtSize - 2 - friends
			labels = append(labels, fmt.Sprintf("fig4 Vitis friends=%d %s", friends, pat))
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := sc.runConfigs(labels, cfgs)
	if err != nil {
		return nil, err
	}

	rvrRes := results[0]
	next := 1
	for _, friends := range friendCounts {
		for _, pat := range patterns {
			res := results[next]
			next++
			tab.AddRow(fmt.Sprint(friends), "Vitis", pat.String(),
				tablefmt.Pct(res.HitRatio), tablefmt.Pct(res.Overhead), tablefmt.F(res.AvgDelay, 2))
		}
		tab.AddRow(fmt.Sprint(friends), "RVR", "-",
			tablefmt.Pct(rvrRes.HitRatio), tablefmt.Pct(rvrRes.Overhead), tablefmt.F(rvrRes.AvgDelay, 2))
	}
	tab.AddNote("paper: Vitis overhead drops sharply as friends grow (up to 88%% reduction with high correlation); delay improves with correlation, worsens slightly for random")
	return tab, nil
}

// Fig5OverheadDist reproduces Fig. 5: the distribution of per-node traffic
// overhead for Vitis vs RVR under correlated and random subscriptions.
func Fig5OverheadDist(sc Scale) (*tablefmt.Table, error) {
	const bins = 10
	tab := &tablefmt.Table{
		Title:   "Fig. 5 — distribution of traffic overhead (fraction of nodes per bin)",
		Columns: []string{"overhead-bin"},
	}
	type variant struct {
		system  System
		pattern workload.Pattern
		label   string
	}
	variants := []variant{
		{Vitis, workload.HighCorrelation, "Vitis-correlated"},
		{Vitis, workload.Random, "Vitis-random"},
		{RVR, workload.HighCorrelation, "RVR-correlated"},
		{RVR, workload.Random, "RVR-random"},
	}
	labels := make([]string, len(variants))
	cfgs := make([]RunConfig, len(variants))
	for i, v := range variants {
		subs, err := sc.subscriptions(v.pattern)
		if err != nil {
			return nil, err
		}
		cfg := sc.runCfg()
		cfg.System = v.system
		cfg.Subs = subs
		labels[i] = "fig5 " + v.label
		cfgs[i] = cfg
	}
	results, err := sc.runConfigs(labels, cfgs)
	if err != nil {
		return nil, err
	}
	fractions := make([][]float64, 0, len(variants))
	for i, v := range variants {
		h := stats.NewHistogram(0, 100.0000001, bins)
		for _, pct := range results[i].PerNodeOverheadPct {
			h.Add(pct)
		}
		fractions = append(fractions, h.Fractions())
		tab.Columns = append(tab.Columns, v.label)
	}
	for b := 0; b < bins; b++ {
		row := []string{fmt.Sprintf("%d-%d%%", b*10, (b+1)*10)}
		for _, fr := range fractions {
			row = append(row, tablefmt.F(fr[b], 3))
		}
		tab.AddRow(row...)
	}
	tab.AddNote("paper: Vitis concentrates nodes in the low-overhead bins; the fraction above 20%% drops to less than a third of RVR's")
	return tab, nil
}

// Fig6TableSize reproduces Fig. 6: overhead (a) and delay (b) while the
// routing table grows from 15 to 35 entries (k fixed at 1 for Vitis; RVR
// turns extra entries into more sw links).
func Fig6TableSize(sc Scale) (*tablefmt.Table, error) {
	tab := &tablefmt.Table{
		Title:   "Fig. 6 — varying routing table size",
		Columns: []string{"RT", "system", "pattern", "hit", "overhead", "delay(hops)"},
	}
	subsByPat, err := sc.patternSubscriptions()
	if err != nil {
		return nil, err
	}
	rvrSubs, err := sc.subscriptions(workload.Random)
	if err != nil {
		return nil, err
	}

	rtSizes := []int{15, 20, 25, 30, 35}
	var labels []string
	var cfgs []RunConfig
	for _, rt := range rtSizes {
		for pi, pat := range patterns {
			cfg := sc.runCfg()
			cfg.System = Vitis
			cfg.Subs = subsByPat[pi]
			cfg.RTSize = rt
			cfg.SWLinks = 1
			labels = append(labels, fmt.Sprintf("fig6 Vitis RT=%d %s", rt, pat))
			cfgs = append(cfgs, cfg)
		}
		cfg := sc.runCfg()
		cfg.System = RVR
		cfg.Subs = rvrSubs
		cfg.RTSize = rt
		labels = append(labels, fmt.Sprintf("fig6 RVR RT=%d", rt))
		cfgs = append(cfgs, cfg)
	}
	results, err := sc.runConfigs(labels, cfgs)
	if err != nil {
		return nil, err
	}

	next := 0
	for _, rt := range rtSizes {
		for _, pat := range patterns {
			res := results[next]
			next++
			tab.AddRow(fmt.Sprint(rt), "Vitis", pat.String(),
				tablefmt.Pct(res.HitRatio), tablefmt.Pct(res.Overhead), tablefmt.F(res.AvgDelay, 2))
		}
		res := results[next]
		next++
		tab.AddRow(fmt.Sprint(rt), "RVR", "-",
			tablefmt.Pct(res.HitRatio), tablefmt.Pct(res.Overhead), tablefmt.F(res.AvgDelay, 2))
	}
	tab.AddNote("paper: both systems improve with bigger tables; Vitis uses extra slots for friends (better clustering), RVR for more sw links (shorter routes)")
	return tab, nil
}

// Fig7PubRate reproduces Fig. 7: overhead (a) and delay (b) as the
// publication-rate distribution across topics gets more skewed (power-law α
// from 0.3 to 3); Vitis's Eq. 1 prioritises hot topics, so the random
// pattern approaches the correlated ones as α grows.
func Fig7PubRate(sc Scale) (*tablefmt.Table, error) {
	tab := &tablefmt.Table{
		Title:   "Fig. 7 — varying publication rate skew (power-law alpha)",
		Columns: []string{"alpha", "system", "pattern", "hit", "overhead", "delay(hops)"},
	}
	subsByPat, err := sc.patternSubscriptions()
	if err != nil {
		return nil, err
	}
	rvrSubs, err := sc.subscriptions(workload.Random)
	if err != nil {
		return nil, err
	}
	alphas := []float64{0.3, 0.6, 1.0, 1.7, 3.0}
	// The rate schedules share one RNG stream, so draw them serially (in
	// alpha order) before fanning the runs out.
	rng := rand.New(rand.NewSource(sc.Seed + 7))
	ratesByAlpha := make([][]float64, len(alphas))
	for i := range alphas {
		ratesByAlpha[i] = workload.TopicRates(rng, sc.Topics, alphas[i])
	}

	var labels []string
	var cfgs []RunConfig
	for ai, alpha := range alphas {
		for pi, pat := range patterns {
			cfg := sc.runCfg()
			cfg.System = Vitis
			cfg.Subs = subsByPat[pi]
			cfg.Rates = ratesByAlpha[ai]
			labels = append(labels, fmt.Sprintf("fig7 Vitis alpha=%.1f %s", alpha, pat))
			cfgs = append(cfgs, cfg)
		}
		cfg := sc.runCfg()
		cfg.System = RVR
		cfg.Subs = rvrSubs
		cfg.Rates = ratesByAlpha[ai]
		labels = append(labels, fmt.Sprintf("fig7 RVR alpha=%.1f", alpha))
		cfgs = append(cfgs, cfg)
	}
	results, err := sc.runConfigs(labels, cfgs)
	if err != nil {
		return nil, err
	}

	next := 0
	for _, alpha := range alphas {
		for _, pat := range patterns {
			res := results[next]
			next++
			tab.AddRow(tablefmt.F(alpha, 1), "Vitis", pat.String(),
				tablefmt.Pct(res.HitRatio), tablefmt.Pct(res.Overhead), tablefmt.F(res.AvgDelay, 2))
		}
		res := results[next]
		next++
		tab.AddRow(tablefmt.F(alpha, 1), "RVR", "-",
			tablefmt.Pct(res.HitRatio), tablefmt.Pct(res.Overhead), tablefmt.F(res.AvgDelay, 2))
	}
	tab.AddNote("paper: as alpha grows, Vitis-random converges toward Vitis-high-correlation because Eq. 1 weights hot topics; RVR is insensitive")
	return tab, nil
}

// Fig8TwitterDegrees reproduces Fig. 8: the in/out-degree frequency
// distribution of the (synthetic) Twitter follower graph with its fitted
// power-law exponent (paper: α ≈ 1.65).
func Fig8TwitterDegrees(sc Scale) (*tablefmt.Table, error) {
	g, err := workload.GenerateTwitter(workload.TwitterConfig{Users: sc.TwitterUsers, Seed: sc.Seed})
	if err != nil {
		return nil, err
	}
	tab := &tablefmt.Table{
		Title:   "Fig. 8 — Twitter-like degree distribution (log-binned frequency)",
		Columns: []string{"degree-bin", "in-degree freq", "out-degree freq"},
	}
	inFreq := stats.DegreeFrequency(g.InDegrees())
	outFreq := stats.DegreeFrequency(g.OutDegrees())
	// Log-spaced bins 1,2,4,8,...
	for lo := 1; lo <= sc.TwitterUsers; lo *= 2 {
		hi := lo*2 - 1
		var in, out int
		for d := lo; d <= hi; d++ {
			in += inFreq[d]
			out += outFreq[d]
		}
		if in == 0 && out == 0 {
			continue
		}
		tab.AddRow(fmt.Sprintf("%d-%d", lo, hi), fmt.Sprint(in), fmt.Sprint(out))
	}
	inAlpha := stats.FitPowerLawExponent(g.InDegrees(), 10)
	outAlpha := stats.FitPowerLawExponent(g.OutDegrees(), 10)
	tab.AddNote("fitted in-degree alpha = %.2f, out-degree alpha = %.2f (paper: 1.65)", inAlpha, outAlpha)
	return tab, nil
}

// Fig9TwitterSummary reproduces Fig. 9: the summary statistics table of the
// Twitter data set.
func Fig9TwitterSummary(sc Scale) (*tablefmt.Table, error) {
	g, err := workload.GenerateTwitter(workload.TwitterConfig{Users: sc.TwitterUsers, Seed: sc.Seed})
	if err != nil {
		return nil, err
	}
	st := workload.Stats(g)
	tab := &tablefmt.Table{
		Title:   "Fig. 9 — summary statistics of the Twitter-like data set",
		Columns: []string{"statistic", "value"},
	}
	tab.AddRow("users", fmt.Sprint(st.Users))
	tab.AddRow("follow relations", fmt.Sprint(st.Follows))
	tab.AddRow("avg out-degree (subscriptions)", tablefmt.F(st.AvgOutDegree, 2))
	tab.AddRow("max out-degree", fmt.Sprint(st.MaxOutDegree))
	tab.AddRow("avg in-degree (followers)", tablefmt.F(st.AvgInDegree, 2))
	tab.AddRow("max in-degree", fmt.Sprint(st.MaxInDegree))
	tab.AddRow("fitted power-law alpha", tablefmt.F(st.FittedAlpha, 2))
	return tab, nil
}

// twitterSubscriptions builds the overlay population for Figs. 10–11: a BFS
// sample of the follower graph, with users doubling as topics.
func (s Scale) twitterSubscriptions() (*workload.Subscriptions, error) {
	g, err := workload.GenerateTwitter(workload.TwitterConfig{Users: s.TwitterUsers, Seed: s.Seed})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Seed + 10))
	sample := workload.BFSSample(g, rng, s.TwitterSample)
	return workload.SubgraphSubscriptions(g, sample), nil
}

// twitterRates spreads publications uniformly over topics that have at least
// one subscriber (users nobody follows never publish to anyone).
func twitterRates(subs *workload.Subscriptions) []float64 {
	rates := make([]float64, subs.Topics)
	for ti, followers := range subs.SubscribersOf() {
		if len(followers) > 0 {
			rates[ti] = 1
		}
	}
	return rates
}

// Fig10Twitter reproduces Fig. 10: hit ratio (a), traffic overhead (b) and
// propagation delay (c) for Vitis, RVR and degree-bounded OPT on the Twitter
// subscription pattern, as the routing table grows 15→35.
func Fig10Twitter(sc Scale) (*tablefmt.Table, error) {
	subs, err := sc.twitterSubscriptions()
	if err != nil {
		return nil, err
	}
	rates := twitterRates(subs)
	tab := &tablefmt.Table{
		Title:   "Fig. 10 — Twitter subscriptions",
		Columns: []string{"RT", "system", "hit", "overhead", "delay(hops)"},
	}
	rtSizes := []int{15, 20, 25, 30, 35}
	systems := []System{Vitis, RVR, OPT}
	var labels []string
	var cfgs []RunConfig
	for _, rt := range rtSizes {
		for _, sys := range systems {
			cfg := sc.runCfg()
			cfg.System = sys
			cfg.Subs = subs
			cfg.Rates = rates
			cfg.RTSize = rt
			cfg.SWLinks = 1
			cfg.OPTMaxDegree = rt
			labels = append(labels, fmt.Sprintf("fig10 %v RT=%d", sys, rt))
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := sc.runConfigs(labels, cfgs)
	if err != nil {
		return nil, err
	}
	next := 0
	for _, rt := range rtSizes {
		for _, sys := range systems {
			res := results[next]
			next++
			tab.AddRow(fmt.Sprint(rt), sys.String(),
				tablefmt.Pct(res.HitRatio), tablefmt.Pct(res.Overhead), tablefmt.F(res.AvgDelay, 2))
		}
	}
	tab.AddNote("paper: Vitis and RVR hit 100%%; OPT caps near 80%% even at RT=35; OPT has zero overhead; Vitis ~30-40%% less overhead than RVR and ~1.5x faster")
	return tab, nil
}

// Fig11OPTDegree reproduces Fig. 11: the node degree distribution of OPT
// with unbounded degree on the Twitter pattern.
func Fig11OPTDegree(sc Scale) (*tablefmt.Table, error) {
	subs, err := sc.twitterSubscriptions()
	if err != nil {
		return nil, err
	}
	cfg := sc.runCfg()
	cfg.System = OPT
	cfg.Subs = subs
	cfg.Rates = twitterRates(subs)
	cfg.OPTMaxDegree = 0 // unbounded
	results, err := sc.runConfigs([]string{"fig11 OPT unbounded"}, []RunConfig{cfg})
	if err != nil {
		return nil, err
	}
	res := results[0]
	tab := &tablefmt.Table{
		Title:   "Fig. 11 — OPT node degree distribution (unbounded)",
		Columns: []string{"degree-bin", "fraction of nodes"},
	}
	h := stats.NewHistogram(0, 200, 10)
	over15, over200, max := 0, 0, 0
	for _, d := range res.Degrees {
		h.Add(float64(d))
		if d > 15 {
			over15++
		}
		if d > 200 {
			over200++
		}
		if d > max {
			max = d
		}
	}
	for i, fr := range h.Fractions() {
		tab.AddRow(fmt.Sprintf("%d-%d", i*20, (i+1)*20-1), tablefmt.F(fr, 3))
	}
	n := float64(len(res.Degrees))
	tab.AddNote("degree > 15: %.1f%% of nodes (paper: more than two thirds)", 100*float64(over15)/n)
	tab.AddNote("degree > 200: %.2f%% of nodes (paper: 0.3%%, max 708)", 100*float64(over200)/n)
	tab.AddNote("max degree: %d", max)
	return tab, nil
}

// Fig12Churn reproduces Fig. 12: hit ratio (a), overhead (b) and delay (c)
// over time for Vitis vs RVR under a Skype-like churn trace with a flash
// crowd, together with the network-size curve.
func Fig12Churn(sc Scale) (*tablefmt.Table, error) {
	subs, err := workload.Generate(workload.SyntheticConfig{
		Nodes:       sc.ChurnNodes,
		Topics:      sc.Topics,
		SubsPerNode: sc.SubsPerNode,
		Buckets:     sc.Buckets,
		Pattern:     workload.LowCorrelation,
		Seed:        sc.Seed,
	})
	if err != nil {
		return nil, err
	}
	trace, err := workload.GenerateChurn(workload.ChurnConfig{
		Nodes:            sc.ChurnNodes,
		Duration:         sc.ChurnDuration,
		MeanSession:      sc.ChurnDuration / 4,
		MeanOffline:      sc.ChurnDuration / 10,
		RampWindow:       sc.ChurnDuration / 4,
		FlashCrowdAt:     sc.ChurnFlashAt,
		FlashCrowdFrac:   0.3,
		FlashCrowdWindow: sc.ChurnDuration / 60,
		Seed:             sc.Seed + 12,
	})
	if err != nil {
		return nil, err
	}

	// The two churn runs are independent; run them as one two-job sweep.
	systems := []System{Vitis, RVR}
	results := make([]*ChurnResult, len(systems))
	jobs := make([]job, len(systems))
	for i, sys := range systems {
		i, sys := i, sys
		jobs[i] = job{label: fmt.Sprintf("fig12 %v churn", sys), run: func() error {
			res, err := RunChurn(ChurnRunConfig{
				System:       sys,
				Subs:         subs,
				Trace:        trace,
				PublishEvery: sc.ChurnPublishEvery,
				Bucket:       sc.ChurnBucket,
				Seed:         sc.Seed,
			})
			if err != nil {
				return err
			}
			results[i] = res
			return nil
		}}
	}
	if err := sc.runJobs(jobs); err != nil {
		return nil, err
	}
	vit, rv := results[0], results[1]

	tab := &tablefmt.Table{
		Title: "Fig. 12 — behaviour under churn (Skype-like trace with flash crowd)",
		Columns: []string{"time", "net-size",
			"Vitis-hit", "RVR-hit", "Vitis-ovh", "RVR-ovh", "Vitis-delay", "RVR-delay"},
	}
	vh, rh := vit.Oracle.HitRatioSeries(), rv.Oracle.HitRatioSeries()
	vo, ro := vit.Oracle.OverheadSeries(), rv.Oracle.OverheadSeries()
	vd, rd := vit.Oracle.DelaySeries(), rv.Oracle.DelaySeries()
	// Align all series on bucket index (the size samples carry a random
	// phase within their bucket).
	pick := func(pts []metrics.SeriesPoint, t simnet.Time, asPct bool) string {
		want := t / sc.ChurnBucket
		for _, p := range pts {
			if p.Start/sc.ChurnBucket == want {
				if asPct {
					return tablefmt.Pct(p.Value)
				}
				return tablefmt.F(p.Value, 2)
			}
		}
		return "-"
	}
	for _, sp := range vit.SizeSeries {
		t := sp.Start
		tab.AddRow(
			fmt.Sprintf("%ds", int64(t/simnet.Second)),
			fmt.Sprint(int(sp.Value)),
			pick(vh, t, true), pick(rh, t, true),
			pick(vo, t, true), pick(ro, t, true),
			pick(vd, t, false), pick(rd, t, false),
		)
	}
	tab.AddNote("paper: both tolerate moderate churn; under the flash crowd RVR's hit ratio dips to ~87%% while Vitis stays ~99%%; RVR's overhead drops (broken relay paths) while Vitis's rises slightly")
	return tab, nil
}
