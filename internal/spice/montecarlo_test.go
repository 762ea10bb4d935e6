package spice

import (
	"encoding/json"
	"testing"
)

// TestMCResultMergeMatchesWholeStream folds one stream of run outcomes into
// a single result and, separately, into two run-order partials that are then
// merged — every aggregate must match the whole-stream result exactly.
func TestMCResultMergeMatchesWholeStream(t *testing.T) {
	outcomes := make([]ActivationResult, 0, 30)
	for i := 0; i < 30; i++ {
		out := ActivationResult{
			Reliable:  i%5 != 0,
			Restored:  i%7 != 0,
			TRCDminNS: 10 + float64(i%9)*0.25,
			TRASminNS: 30 + float64(i%6)*0.5,
		}
		outcomes = append(outcomes, out)
	}
	fold := func(res *MCResult, outs []ActivationResult) {
		for i, out := range outs {
			res.record(out, i%11 == 10)
			res.Runs++
		}
	}
	whole := MCResult{VPP: 2.0}
	fold(&whole, outcomes)

	lo, hi := MCResult{VPP: 2.0}, MCResult{VPP: 2.0}
	fold(&lo, outcomes[:13])
	// The later range must preserve its global run parity for the synthetic
	// no-converge pattern; simpler: re-fold with the original indices.
	for i := 13; i < len(outcomes); i++ {
		hi.record(outcomes[i], i%11 == 10)
		hi.Runs++
	}
	if err := lo.Merge(hi); err != nil {
		t.Fatal(err)
	}
	if lo.Runs != whole.Runs || lo.Unreliable != whole.Unreliable ||
		lo.Unrestored != whole.Unrestored || lo.NoConverge != whole.NoConverge {
		t.Errorf("merged counters %+v differ from whole-stream %+v", lo, whole)
	}
	if lo.TRCDmin.Mean() != whole.TRCDmin.Mean() || lo.TRASmin.Mean() != whole.TRASmin.Mean() {
		t.Errorf("merged means (%v,%v) differ from whole-stream (%v,%v)",
			lo.TRCDmin.Mean(), lo.TRASmin.Mean(), whole.TRCDmin.Mean(), whole.TRASmin.Mean())
	}
	gp, _ := lo.TRCDmin.Percentile(95)
	wp, _ := whole.TRCDmin.Percentile(95)
	if gp != wp {
		t.Errorf("merged P95 %v != whole-stream %v", gp, wp)
	}

	other := MCResult{VPP: 1.8}
	if err := lo.Merge(other); err == nil {
		t.Error("merging different VPP levels must error")
	}
}

// TestMCResultJSONRoundTrip: the per-level shard payload reproduces every
// aggregate after a trip through its artifact encoding.
func TestMCResultJSONRoundTrip(t *testing.T) {
	res, err := RunMonteCarlo(t.Context(), MCConfig{VPP: 2.0, Runs: 8, Seed: 2022, Variation: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var got MCResult
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.VPP != res.VPP || got.Runs != res.Runs || got.NoConverge != res.NoConverge {
		t.Fatalf("round trip lost counters: %+v vs %+v", got, res)
	}
	if got.MeanTRCDminNS() != res.MeanTRCDminNS() || got.WorstTRCDminNS() != res.WorstTRCDminNS() {
		t.Errorf("round trip changed tRCD aggregates")
	}
	gp, err1 := got.TRCDmin.Percentile(95)
	wp, err2 := res.TRCDmin.Percentile(95)
	if err1 != nil || err2 != nil || gp != wp {
		t.Errorf("round trip changed P95: %v/%v (%v %v)", gp, wp, err1, err2)
	}
}
