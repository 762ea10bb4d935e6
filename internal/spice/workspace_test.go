package spice

import (
	"context"
	"reflect"
	"testing"

	"github.com/dramstudy/rhvpp/internal/rng"
)

// TestWorkspaceMatchesFreshSimulation pins the reuse path to the one-shot
// path: a Workspace re-stamped with each run's varied parameters must
// reproduce SimulateActivation bit for bit — the adaptive measurement of an
// unprobed run and the full-grid waveform of a probed one — including after
// prior runs have dirtied the solver state and across a VPP change
// mid-sequence.
func TestWorkspaceMatchesFreshSimulation(t *testing.T) {
	ws := NewWorkspace()
	root := rng.New(11).Derive("ws-test")
	vpps := []float64{2.5, 1.8, 2.2, 1.7, 2.5}
	for i, vpp := range vpps {
		p := Vary(DefaultCellParams(vpp), root.Derive("run", i), 0.05)

		gotAdaptive, errW := ws.Simulate(p, nil)
		wantAdaptive, errF := SimulateActivation(p, nil)
		if errW != nil || errF != nil {
			t.Fatalf("run %d (%.1fV): adaptive: workspace %v, fresh %v", i, vpp, errW, errF)
		}
		if gotAdaptive != wantAdaptive {
			t.Fatalf("run %d (%.1fV): adaptive results diverge:\nworkspace %+v\nfresh     %+v", i, vpp, gotAdaptive, wantAdaptive)
		}

		var wsBL, wsCell, freshBL, freshCell []float64
		got, err := ws.Simulate(p, func(_, vbl, vcell float64) {
			wsBL = append(wsBL, vbl)
			wsCell = append(wsCell, vcell)
		})
		if err != nil {
			t.Fatalf("run %d (%.1fV): workspace: %v", i, vpp, err)
		}
		want, err := SimulateActivation(p, func(_, vbl, vcell float64) {
			freshBL = append(freshBL, vbl)
			freshCell = append(freshCell, vcell)
		})
		if err != nil {
			t.Fatalf("run %d (%.1fV): fresh: %v", i, vpp, err)
		}
		if got != want {
			t.Fatalf("run %d (%.1fV): results diverge:\nworkspace %+v\nfresh     %+v", i, vpp, got, want)
		}
		if len(wsBL) != len(freshBL) {
			t.Fatalf("run %d: trace lengths %d vs %d", i, len(wsBL), len(freshBL))
		}
		for j := range wsBL {
			if wsBL[j] != freshBL[j] || wsCell[j] != freshCell[j] {
				t.Fatalf("run %d: waveform deviates at sample %d: (%.17g, %.17g) vs (%.17g, %.17g)",
					i, j, wsBL[j], wsCell[j], freshBL[j], freshCell[j])
			}
		}
	}
}

// TestWorkspaceSimulateAllocs is the satellite acceptance check for
// workspace reuse: re-stamping varied parameters instead of rebuilding the
// MNA system per run must eliminate steady-state allocations, by orders of
// magnitude compared to the one-shot path. It is also the allocation
// witness for the fused cell-pattern Newton iteration (cell6Iter), which
// every Monte-Carlo run of the Table 2 netlist takes.
func TestWorkspaceSimulateAllocs(t *testing.T) {
	ws := NewWorkspace()
	root := rng.New(3).Derive("ws-allocs")
	params := make([]CellParams, 8)
	for i := range params {
		params[i] = Vary(DefaultCellParams(2.1), root.Derive("run", i), 0.05)
	}
	if _, err := ws.Simulate(params[0], nil); err != nil { // build the netlist
		t.Fatal(err)
	}
	if !ws.tr.red.cell6 {
		t.Fatal("the Table 2 netlist no longer takes the cell6Iter path")
	}
	i := 0
	reused := testing.AllocsPerRun(6, func() {
		if _, err := ws.Simulate(params[i%len(params)], nil); err != nil {
			t.Fatal(err)
		}
		i++
	})
	fresh := testing.AllocsPerRun(6, func() {
		if _, err := SimulateActivation(params[0], nil); err != nil {
			t.Fatal(err)
		}
	})
	if reused > 4 {
		t.Errorf("reused workspace allocates %.0f objects per run, want ~0", reused)
	}
	if fresh < 20 {
		t.Fatalf("one-shot path allocates only %.0f objects — baseline assumption broken", fresh)
	}
	if reused >= fresh/10 {
		t.Errorf("workspace reuse dropped allocations to %.0f/run vs %.0f fresh: want >=10x reduction",
			reused, fresh)
	}
}

// TestRunMonteCarloSweepMatchesPerLevel pins the global run queue to the
// per-level campaigns it replaced: one sweep over all levels must equal
// running RunMonteCarlo level by level, at any worker count.
func TestRunMonteCarloSweepMatchesPerLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo is slow")
	}
	ctx := context.Background()
	vpps := []float64{2.5, 2.0, 1.7}
	cfg := MCConfig{Runs: 10, Seed: 77, Variation: 0.05}

	for _, jobs := range []int{1, 8} {
		c := cfg
		c.Jobs = jobs
		sweep, err := RunMonteCarloSweep(ctx, vpps, c)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if len(sweep) != len(vpps) {
			t.Fatalf("jobs=%d: %d results", jobs, len(sweep))
		}
		for li, vpp := range vpps {
			c1 := c
			c1.VPP = vpp
			single, err := RunMonteCarlo(ctx, c1)
			if err != nil {
				t.Fatalf("jobs=%d vpp=%v: %v", jobs, vpp, err)
			}
			if !reflect.DeepEqual(sweep[li], single) {
				t.Errorf("jobs=%d vpp=%v: sweep result diverges from per-level campaign:\n%+v\n%+v",
					jobs, vpp, sweep[li], single)
			}
		}
	}
}

// TestMCAggregationAllocsIndependentOfRuns is the memory-bound acceptance
// criterion at the campaign level: folding additional runs into an MCResult
// allocates nothing once the measurement grid is populated, so aggregate
// state is O(1) in the run count.
func TestMCAggregationAllocsIndependentOfRuns(t *testing.T) {
	// Synthesize outcomes on a fixed step grid, like the simulator produces.
	outs := make([]ActivationResult, 64)
	for i := range outs {
		outs[i] = ActivationResult{
			Reliable:  true,
			Restored:  i%3 != 0,
			TRCDminNS: 11.0 + float64(i%16)*0.025,
			TRASminNS: 30.0 + float64(i%16)*0.025,
		}
	}
	var r MCResult
	for _, out := range outs { // populate the distinct-value grid
		r.record(out, false)
	}
	i := 0
	if allocs := testing.AllocsPerRun(2000, func() {
		r.record(outs[i%len(outs)], false)
		i++
	}); allocs > 0 {
		t.Errorf("MCResult.record allocates %v per run on a populated grid, want 0", allocs)
	}
}
