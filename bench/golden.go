package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// The simulator is deterministic, so the counts of a seed-1 run at the
// driver's run length are a fingerprint. They are committed in
// testdata/golden-seed1.json (regenerate with
// `go test -run TestGoldenSeed1 -update`). The first inputCounts of them are
// fixed by the workload generator alone: if they drift, the same seed no
// longer gives the same inputs and the run is incorrect. The rest follow
// from the protocol's behaviour; a run reports their drift but does not fail
// on it, because a later change that legitimately alters protocol traffic
// may not edit the benchmark and must still be able to land: the drift then
// is the count it claims. `go test` in this directory fails on either.

//go:embed testdata/golden-seed1.json
var goldenJSON []byte

const inputCounts = 2 // published, expected

var countNames = [10]string{"published", "expected", "delivered", "wire_bytes", "messages", "engine_events",
	"notifications", "uninterested", "hop_sum", "remote_deliveries"}

func (r *rep) namedCounts() map[string]uint64 {
	out := map[string]uint64{}
	for i, v := range r.counts() {
		out[countNames[i]] = v
	}
	return out
}

// checkGolden compares a seed-1 simulator repetition with the committed
// counts.
func checkGolden(res *result, r *rep) {
	var golden map[string]map[string]uint64
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		res.problemf("golden: testdata/golden-seed1.json unreadable: %v", err)
		return
	}
	want, ok := golden[res.workload]
	if !ok {
		res.problemf("golden: no committed counts for %s", res.workload)
		return
	}
	got := r.namedCounts()
	for i, name := range countNames {
		if got[name] == want[name] {
			continue
		}
		if i < inputCounts {
			res.problemf("golden: seed 1 no longer gives the committed inputs: %s is %d, committed %d", name, got[name], want[name])
		} else {
			res.notes = append(res.notes, fmt.Sprintf("golden: DRIFT from testdata/golden-seed1.json: %s is %d, committed %d", name, got[name], want[name]))
		}
		return
	}
	res.notes = append(res.notes, "golden: seed-1 counts match testdata/golden-seed1.json")
}
