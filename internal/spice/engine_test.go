package spice

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
)

// goldenSweepVPPs mirrors the experiment layer's Fig. 8/9 sweep.
var goldenSweepVPPs = []float64{2.5, 2.4, 2.3, 2.2, 2.1, 2.0, 1.9, 1.8, 1.7}

// TestGoldenIncrementalMatchesReference pins the incremental/analytic-
// Jacobian engine to the dense finite-difference reference on the Fig.
// 8a/9a waveforms at every sweep VPP: both integrate the same nonlinear
// system to the same Newton tolerance, so the traces must agree to 1e-9 V.
// The probe puts the incremental engine on the full grid — this test is the
// FIXED-grid contract between the two engines; adaptive_test.go pins the
// adaptive engine against the same reference.
func TestGoldenIncrementalMatchesReference(t *testing.T) {
	for _, vpp := range goldenSweepVPPs {
		p := DefaultCellParams(vpp)
		var fastBL, fastCell, refBL, refCell []float64
		fast, err := SimulateActivation(p, func(_, vbl, vcell float64) {
			fastBL = append(fastBL, vbl)
			fastCell = append(fastCell, vcell)
		})
		if err != nil {
			t.Fatalf("vpp=%v: incremental: %v", vpp, err)
		}
		ref, err := SimulateActivationReference(p, func(_, vbl, vcell float64) {
			refBL = append(refBL, vbl)
			refCell = append(refCell, vcell)
		})
		if err != nil {
			t.Fatalf("vpp=%v: reference: %v", vpp, err)
		}
		if len(fastBL) != len(refBL) {
			t.Fatalf("vpp=%v: sample counts differ: %d vs %d", vpp, len(fastBL), len(refBL))
		}
		for i := range fastBL {
			if d := math.Abs(fastBL[i] - refBL[i]); d > 1e-9 {
				t.Fatalf("vpp=%v: bitline deviates by %.3g at sample %d", vpp, d, i)
			}
			if d := math.Abs(fastCell[i] - refCell[i]); d > 1e-9 {
				t.Fatalf("vpp=%v: cell deviates by %.3g at sample %d", vpp, d, i)
			}
		}
		// The measurements derive from threshold crossings on the shared
		// step grid; with waveforms this close they must land identically.
		if fast.TRCDminNS != ref.TRCDminNS || fast.TRASminNS != ref.TRASminNS ||
			fast.Reliable != ref.Reliable || fast.Restored != ref.Restored {
			t.Errorf("vpp=%v: measurements diverge: %+v vs %+v", vpp, fast, ref)
		}
	}
}

// TestReducedEngineSelection verifies the engine choice: the DRAM-cell
// netlist (grounded sources only) takes the incremental path, a floating
// source falls back to the dense reference, and both fallbacks still solve
// correctly.
func TestReducedEngineSelection(t *testing.T) {
	c := NewCircuit()
	a, b := c.Node("a"), c.Node("b")
	c.V(a, b, DC(1.0)) // floating source: cannot be reduced
	c.R(a, Ground, 1000)
	c.R(b, Ground, 1000)
	tr := NewTransient(c, 1e-12)
	if tr.red != nil {
		t.Fatal("floating source circuit took the reduced path")
	}
	if err := tr.Step(); err != nil {
		t.Fatal(err)
	}
	if got := tr.V(a) - tr.V(b); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("floating source enforces %v, want 1.0", got)
	}

	c2 := NewCircuit()
	n := c2.Node("n")
	c2.V(n, Ground, DC(1.0))
	c2.V(n, Ground, DC(2.0)) // doubly driven: dense fallback decides
	if tr2 := NewTransient(c2, 1e-12); tr2.red != nil {
		t.Fatal("doubly driven node took the reduced path")
	}

	c3 := NewCircuit()
	m := c3.Node("m")
	c3.V(Ground, m, DC(1.0)) // grounded through the negative terminal
	c3.R(m, Ground, 1000)
	tr3 := NewTransient(c3, 1e-12)
	if tr3.red == nil {
		t.Fatal("negative-terminal grounded source should reduce")
	}
	if err := tr3.Step(); err != nil {
		t.Fatal(err)
	}
	if got := tr3.V(m); math.Abs(got+1.0) > 1e-9 {
		t.Errorf("V = %v, want -1.0", got)
	}
}

// TestMOSStampMatchesEval checks the analytic stamp partials against
// central finite differences of eval at operating points covering every
// region, polarity, and orientation.
func TestMOSStampMatchesEval(t *testing.T) {
	devices := []MOSParams{
		{Type: NMOS, W: 1e-6, L: 1e-6, VT0: 0.5, KP: 100e-6, Lambda: 0.03},
		{Type: PMOS, W: 0.9e-6, L: 0.1e-6, VT0: 0.45, KP: 11e-6, Lambda: 0.05},
	}
	points := []struct{ vd, vg, vs float64 }{
		{1.0, 0.3, 0},    // cutoff
		{0.5, 1.5, 0},    // triode
		{2.0, 1.5, 0},    // saturation
		{0.2, 2.0, 1.0},  // reversed triode
		{0.0, 2.0, 1.8},  // reversed saturation
		{-0.5, -1.5, 0},  // mirrored operating point
		{0.6, 0.6, 0.6},  // all terminals equal
		{1.3, 0.9, -0.4}, // shifted source
	}
	const h = 1e-7
	for _, p := range devices {
		for _, pt := range points {
			id, gdd, gdg, gds := p.stamp(pt.vd, pt.vg, pt.vs)
			id0, _, _ := p.eval(pt.vd, pt.vg, pt.vs)
			if math.Abs(id-id0) > 1e-15 {
				t.Fatalf("%+v at %+v: stamp id %v != eval id %v", p.Type, pt, id, id0)
			}
			fd := func(dvd, dvg, dvs float64) float64 {
				hi, _, _ := p.eval(pt.vd+dvd*h, pt.vg+dvg*h, pt.vs+dvs*h)
				lo, _, _ := p.eval(pt.vd-dvd*h, pt.vg-dvg*h, pt.vs-dvs*h)
				return (hi - lo) / (2 * h)
			}
			for _, chk := range []struct {
				name      string
				got, want float64
			}{
				{"gdd", gdd, fd(1, 0, 0)},
				{"gdg", gdg, fd(0, 1, 0)},
				{"gds", gds, fd(0, 0, 1)},
			} {
				tol := 1e-7 * (1 + math.Abs(chk.want))
				if math.Abs(chk.got-chk.want) > tol {
					t.Errorf("%v at %+v: %s = %v, finite difference %v",
						p.Type, pt, chk.name, chk.got, chk.want)
				}
			}
		}
	}
}

// TestMonteCarloDeterministicAcrossJobs asserts the worker count never
// changes the campaign result: every run draws from an index-derived stream
// and aggregation happens in index order.
func TestMonteCarloDeterministicAcrossJobs(t *testing.T) {
	ctx := context.Background()
	base := MCConfig{VPP: 2.0, Runs: 16, Seed: 99, Variation: 0.05}

	cfg1 := base
	cfg1.Jobs = 1
	serial, err := RunMonteCarlo(ctx, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	cfg8 := base
	cfg8.Jobs = 8
	parallel, err := RunMonteCarlo(ctx, cfg8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("Jobs=1 and Jobs=8 diverge:\n%+v\n%+v", serial, parallel)
	}
}

// TestMCResultRecordsNoConverge pins the campaign bookkeeping: a diverging
// run is not a campaign abort but an unreliable, unrestored sample with its
// own counter (the Fig. 8b/9b low-VPP regime).
func TestMCResultRecordsNoConverge(t *testing.T) {
	var r MCResult
	r.Runs = 3
	r.record(ActivationResult{Reliable: true, TRCDminNS: 11.5, Restored: true, TRASminNS: 30}, false)
	r.record(ActivationResult{}, true) // Newton divergence
	r.record(ActivationResult{Reliable: true, TRCDminNS: 12.0}, false)
	if r.NoConverge != 1 {
		t.Errorf("NoConverge = %d, want 1", r.NoConverge)
	}
	if r.Unreliable != 1 || r.Unrestored != 2 {
		t.Errorf("Unreliable=%d Unrestored=%d, want 1 and 2", r.Unreliable, r.Unrestored)
	}
	if r.TRCDmin.N() != 2 || r.TRASmin.N() != 1 {
		t.Errorf("samples = %d/%d, want 2/1", r.TRCDmin.N(), r.TRASmin.N())
	}
	if r.Reliable() != 2 || r.Restored() != 1 {
		t.Errorf("Reliable/Restored = %d/%d, want 2/1", r.Reliable(), r.Restored())
	}
}

// TestRunMonteCarloCancellation verifies the campaign honors its context.
func TestRunMonteCarloCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunMonteCarlo(ctx, MCConfig{VPP: 2.5, Runs: 4, Seed: 1, Variation: 0.05, Jobs: 1})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
