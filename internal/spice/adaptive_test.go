package spice

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/dramstudy/rhvpp/internal/rng"
)

// simulateFullGrid measures p on every cell of the StepPS grid without a
// probe: the full-grid side of the adaptive comparisons below.
func simulateFullGrid(p CellParams) (ActivationResult, error) {
	return simulateActivation(p, nil, NewTransient, false)
}

// TestAdaptiveCrossingsMatchFixedGrid is the crossing-quantization property
// test: every measurement the adaptive engine reports — the tRCDmin and
// tRASmin threshold crossings quantized onto the 25 ps grid, and the
// reliable/restored classifications — must be IDENTICAL (bit-for-bit, not
// approximately) to the fixed-grid measurement, both on the Fig. 8a/9a
// waveforms at every sweep VPP and on the golden campaign's Monte-Carlo
// population (seed 2022, ±5% variation). This is the property the campaign
// goldens' byte-identity rests on: identical crossing floats mean the exact
// streaming quantiles in internal/stats see the same multiset either way.
func TestAdaptiveCrossingsMatchFixedGrid(t *testing.T) {
	for _, vpp := range goldenSweepVPPs {
		p := DefaultCellParams(vpp)
		fast, err := SimulateActivation(p, nil)
		if err != nil {
			t.Fatalf("vpp=%v: adaptive: %v", vpp, err)
		}
		fixed, err := simulateFullGrid(p)
		if err != nil {
			t.Fatalf("vpp=%v: fixed: %v", vpp, err)
		}
		assertSameMeasurement(t, fmt.Sprintf("vpp=%v", vpp), fast, fixed)
	}

	if testing.Short() {
		t.Skip("golden-population crossings in -short mode")
	}
	const runs = 24 // the golden campaign's per-level population
	for _, vpp := range goldenSweepVPPs {
		root := rng.New(2022).Derive("spice-mc", fmt.Sprintf("%.2f", vpp))
		for i := 0; i < runs; i++ {
			p := Vary(DefaultCellParams(vpp), root.Derive("run", i), 0.05)
			fast, errA := SimulateActivation(p, nil)
			fixed, errF := simulateFullGrid(p)
			if (errA == nil) != (errF == nil) ||
				errors.Is(errA, ErrNoConverge) != errors.Is(errF, ErrNoConverge) {
				t.Fatalf("vpp=%v run %d: error divergence: adaptive %v, fixed %v", vpp, i, errA, errF)
			}
			if errA != nil {
				continue // both diverged: same NoConverge classification
			}
			assertSameMeasurement(t, fmt.Sprintf("vpp=%v run %d", vpp, i), fast, fixed)
		}
	}
}

func assertSameMeasurement(t *testing.T, at string, a, b ActivationResult) {
	t.Helper()
	if a.TRCDminNS != b.TRCDminNS || a.TRASminNS != b.TRASminNS ||
		a.Reliable != b.Reliable || a.Restored != b.Restored {
		t.Errorf("%s: adaptive measurements diverge from fixed grid:\nadaptive %+v\nfixed    %+v", at, a, b)
	}
}

// TestAdaptiveMatchesReference pins the adaptive engine's accuracy contract
// against the dense finite-difference reference: every sample the adaptive
// run emits lands on a base-grid instant whose time is bit-identical to a
// reference sample time, with voltages within AccuracyTolV.
func TestAdaptiveMatchesReference(t *testing.T) {
	for _, vpp := range goldenSweepVPPs {
		p := DefaultCellParams(vpp)
		refBL := make(map[float64]float64)
		refCell := make(map[float64]float64)
		if _, err := SimulateActivationReference(p, func(tNS, vbl, vcell float64) {
			refBL[tNS] = vbl
			refCell[tNS] = vcell
		}); err != nil {
			t.Fatalf("vpp=%v: reference: %v", vpp, err)
		}
		samples, offGrid := 0, 0
		worst := 0.0
		if _, err := simulateActivation(p, func(tNS, vbl, vcell float64) {
			samples++
			wb, ok := refBL[tNS]
			if !ok {
				offGrid++
				return
			}
			worst = math.Max(worst, math.Abs(wb-vbl))
			worst = math.Max(worst, math.Abs(refCell[tNS]-vcell))
		}, NewTransient, true); err != nil {
			t.Fatalf("vpp=%v: adaptive: %v", vpp, err)
		}
		if samples == 0 {
			t.Fatalf("vpp=%v: adaptive run emitted no samples", vpp)
		}
		if offGrid > 0 {
			t.Errorf("vpp=%v: %d of %d adaptive sample times missing from the reference grid — grid clock drift", vpp, offGrid, samples)
		}
		if worst > AccuracyTolV {
			t.Errorf("vpp=%v: adaptive deviates %.3g V from the dense reference, contract is %.3g", vpp, worst, AccuracyTolV)
		}
	}
}

// TestAdaptiveStepReduction is the speedup acceptance criterion: across the
// Fig. 8a/9a sweep, the quiescent stretches (the cells covered by accepted
// coarse steps) must take at least 3x fewer implicit solves than base cells
// covered, and the whole sweep must take fewer solves than the fixed grid.
func TestAdaptiveStepReduction(t *testing.T) {
	var coarseCells, coarseSolves, solves, fixedSolves int
	for _, vpp := range goldenSweepVPPs {
		p := DefaultCellParams(vpp)
		fast, err := SimulateActivation(p, nil)
		if err != nil {
			t.Fatalf("vpp=%v: adaptive: %v", vpp, err)
		}
		fixed, err := simulateFullGrid(p)
		if err != nil {
			t.Fatalf("vpp=%v: fixed: %v", vpp, err)
		}
		coarseCells += fast.Steps.CoarseCells
		coarseSolves += fast.Steps.CoarseSolves
		solves += fast.Steps.Solves
		fixedSolves += fixed.Steps.Solves
		if fast.Steps.Cells != fixed.Steps.Cells {
			t.Errorf("vpp=%v: adaptive covered %d cells, fixed %d", vpp, fast.Steps.Cells, fixed.Steps.Cells)
		}
	}
	if coarseSolves == 0 {
		t.Fatal("no coarse steps accepted anywhere in the sweep")
	}
	if red := float64(coarseCells) / float64(coarseSolves); red < 3 {
		t.Errorf("quiescent step reduction %.2fx, acceptance floor is 3x", red)
	}
	if solves >= fixedSolves {
		t.Errorf("adaptive sweep used %d solves, fixed grid %d — no overall win", solves, fixedSolves)
	}
}

// TestProbeImpliesFullGrid pins the stepping policy: a probed run covers
// the grid cell for cell with one solve each and measures exactly what the
// unprobed full-grid run does, while an unprobed run steps adaptively.
func TestProbeImpliesFullGrid(t *testing.T) {
	p := DefaultCellParams(2.0)
	probed, err := SimulateActivation(p, func(_, _, _ float64) {})
	if err != nil {
		t.Fatal(err)
	}
	if probed.Steps.CoarseCells != 0 || probed.Steps.Solves != probed.Steps.Cells {
		t.Errorf("probed run coarsened: %+v", probed.Steps)
	}
	full, err := simulateFullGrid(p)
	if err != nil {
		t.Fatal(err)
	}
	if probed != full {
		t.Errorf("probed run diverges from the full grid:\nprobed %+v\nfull   %+v", probed, full)
	}
	adaptive, err := SimulateActivation(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Steps.CoarseCells == 0 {
		t.Errorf("unprobed run never coarsened: %+v", adaptive.Steps)
	}
}
