package spice

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/dramstudy/rhvpp/internal/rng"
)

func newStream(seed uint64) *rng.Stream { return rng.New(seed) }

func TestPWLWaveform(t *testing.T) {
	w := PWL{Times: []float64{0, 1, 3}, Values: []float64{0, 10, 10}}
	tests := []struct{ t, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 5}, {1, 10}, {2, 10}, {3, 10}, {99, 10},
	}
	for _, tt := range tests {
		if got := w.At(tt.t); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
	if (PWL{}).At(5) != 0 {
		t.Error("empty PWL should be 0")
	}
	if DC(3.3).At(42) != 3.3 {
		t.Error("DC waveform wrong")
	}
}

func TestNodeAllocation(t *testing.T) {
	c := NewCircuit()
	a := c.Node("a")
	b := c.Node("b")
	if a == b || a == Ground || b == Ground {
		t.Errorf("node ids: a=%d b=%d", a, b)
	}
	if c.Node("a") != a {
		t.Error("node lookup not stable")
	}
	if c.Node("gnd") != Ground || c.Node("0") != Ground {
		t.Error("ground aliases broken")
	}
}

func TestSolveDense(t *testing.T) {
	// 2x + y = 5; x - y = 1  => x=2, y=1
	a := []float64{2, 1, 1, -1}
	b := []float64{5, 1}
	if err := solveDense(a, b, 2); err != nil {
		t.Fatal(err)
	}
	if math.Abs(b[0]-2) > 1e-12 || math.Abs(b[1]-1) > 1e-12 {
		t.Errorf("solution = %v, want [2 1]", b)
	}
}

func TestSolveDenseSingular(t *testing.T) {
	a := []float64{1, 1, 1, 1}
	b := []float64{1, 2}
	if err := solveDense(a, b, 2); err == nil {
		t.Error("singular system solved")
	}
}

func TestQuickSolveDenseRandomSystems(t *testing.T) {
	f := func(m11, m12, m21, m22, x1, x2 int8) bool {
		a11, a12 := float64(m11)+0.5, float64(m12)
		a21, a22 := float64(m21), float64(m22)+17.5
		wx1, wx2 := float64(x1), float64(x2)
		det := a11*a22 - a12*a21
		if math.Abs(det) < 1e-6 {
			return true
		}
		b1 := a11*wx1 + a12*wx2
		b2 := a21*wx1 + a22*wx2
		a := []float64{a11, a12, a21, a22}
		b := []float64{b1, b2}
		if err := solveDense(a, b, 2); err != nil {
			return false
		}
		return math.Abs(b[0]-wx1) < 1e-6 && math.Abs(b[1]-wx2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRCDischarge(t *testing.T) {
	// A 1k/1pF RC discharging from 1V: V(t) = exp(-t/RC), tau = 1ns.
	c := NewCircuit()
	n := c.Node("cap")
	c.R(n, Ground, 1000)
	c.C(n, Ground, 1e-12)
	c.SetInitial(n, 1.0)
	tr := NewTransient(c, 5e-12)
	if err := tr.Run(1e-9, nil); err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-1)
	if got := tr.V(n); math.Abs(got-want) > 0.01 {
		t.Errorf("V(tau) = %v, want %v (backward Euler tolerance 1%%)", got, want)
	}
}

func TestVoltageSourceDrivesNode(t *testing.T) {
	c := NewCircuit()
	n := c.Node("out")
	c.V(n, Ground, DC(1.8))
	c.R(n, Ground, 100)
	tr := NewTransient(c, 1e-12)
	if err := tr.Step(); err != nil {
		t.Fatal(err)
	}
	if got := tr.V(n); math.Abs(got-1.8) > 1e-9 {
		t.Errorf("V = %v, want 1.8", got)
	}
}

func TestRCChargeThroughSource(t *testing.T) {
	// Series R from source to cap: V_cap(t) = 1 - exp(-t/RC).
	c := NewCircuit()
	src := c.Node("src")
	cap := c.Node("cap")
	c.V(src, Ground, DC(1.0))
	c.R(src, cap, 1000)
	c.C(cap, Ground, 1e-12)
	tr := NewTransient(c, 5e-12)
	if err := tr.Run(3e-9, nil); err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Exp(-3)
	if got := tr.V(cap); math.Abs(got-want) > 0.01 {
		t.Errorf("V(3tau) = %v, want %v", got, want)
	}
}

func TestNMOSRegions(t *testing.T) {
	m := MOSParams{Type: NMOS, W: 1e-6, L: 1e-6, VT0: 0.5, KP: 100e-6}
	// Cutoff.
	id, _, _ := m.eval(1.0, 0.3, 0)
	if id > 1e-9 {
		t.Errorf("cutoff current = %v", id)
	}
	// Saturation: Vgs=1.5, Vds=2 > Vov=1: Id = KP/2*(W/L)*Vov^2 = 50u.
	id, _, _ = m.eval(2.0, 1.5, 0)
	if math.Abs(id-50e-6) > 1e-6 {
		t.Errorf("saturation current = %v, want ~50uA", id)
	}
	// Triode: Vgs=1.5, Vds=0.5: Id = 100u*(1*0.5 - 0.125) = 37.5u.
	id, _, _ = m.eval(0.5, 1.5, 0)
	if math.Abs(id-37.5e-6) > 1e-6 {
		t.Errorf("triode current = %v, want ~37.5uA", id)
	}
}

func TestNMOSSymmetry(t *testing.T) {
	// Swapping drain and source must negate the current.
	m := MOSParams{Type: NMOS, W: 1e-6, L: 1e-6, VT0: 0.5, KP: 100e-6}
	fwd, _, _ := m.eval(1.0, 2.0, 0.2)
	rev, _, _ := m.eval(0.2, 2.0, 1.0)
	if math.Abs(fwd+rev) > 1e-12 {
		t.Errorf("asymmetric device: %v vs %v", fwd, rev)
	}
}

func TestPMOSMirrorsNMOS(t *testing.T) {
	n := MOSParams{Type: NMOS, W: 1e-6, L: 1e-6, VT0: 0.5, KP: 100e-6}
	p := n
	p.Type = PMOS
	idN, _, _ := n.eval(1.0, 1.5, 0)
	idP, _, _ := p.eval(-1.0, -1.5, 0)
	if math.Abs(idN+idP) > 1e-12 {
		t.Errorf("PMOS current %v does not mirror NMOS %v", idP, idN)
	}
}

func TestMOSInverter(t *testing.T) {
	// NMOS with resistive pull-up: input high -> output low.
	c := NewCircuit()
	vdd := c.Node("vdd")
	in := c.Node("in")
	out := c.Node("out")
	c.V(vdd, Ground, DC(1.2))
	c.V(in, Ground, DC(1.2))
	c.R(vdd, out, 100e3)
	c.MOS(out, in, Ground, MOSParams{Type: NMOS, W: 2e-6, L: 0.1e-6, VT0: 0.4, KP: 100e-6})
	c.C(out, Ground, 1e-15)
	tr := NewTransient(c, 1e-12)
	if err := tr.Run(2e-10, nil); err != nil {
		t.Fatal(err)
	}
	if got := tr.V(out); got > 0.1 {
		t.Errorf("inverter output = %v, want < 0.1 (strongly pulled down)", got)
	}
}

func TestActivationNominal(t *testing.T) {
	res, err := SimulateActivation(DefaultCellParams(2.5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reliable || !res.Restored {
		t.Fatalf("nominal activation failed: %+v", res)
	}
	// Paper SPICE: tRCDmin ~11.6ns at nominal VPP.
	if res.TRCDminNS < 10 || res.TRCDminNS > 13 {
		t.Errorf("nominal tRCDmin = %.2f, want ~11.6", res.TRCDminNS)
	}
	// Cell restores to VDD at nominal VPP.
	if math.Abs(res.FinalCellV-1.14) > 0.05 {
		t.Errorf("final cell voltage = %.3f, want ~1.14 (0.95*VDD)", res.FinalCellV)
	}
}

func TestActivationTRCDGrowsAsVPPFalls(t *testing.T) {
	prev := 0.0
	for _, vpp := range []float64{2.5, 2.3, 2.1, 1.9, 1.7} {
		res, err := SimulateActivation(DefaultCellParams(vpp), nil)
		if err != nil {
			t.Fatalf("vpp=%v: %v", vpp, err)
		}
		if !res.Reliable {
			t.Fatalf("vpp=%v: unreliable at nominal parameters", vpp)
		}
		if res.TRCDminNS < prev {
			t.Errorf("tRCDmin decreased at vpp=%v: %.2f after %.2f", vpp, res.TRCDminNS, prev)
		}
		prev = res.TRCDminNS
	}
}

func TestSaturationMatchesObservation10(t *testing.T) {
	// Obsv. 10: cell saturates at VDD for VPP >= 2.0, and at ~4.1%, 11.0%,
	// 18.1% below VDD at 1.9, 1.8, 1.7 V.
	tests := []struct{ vpp, lossPct, tol float64 }{
		{2.5, 0, 1}, {2.0, 0, 1},
		{1.9, 4.1, 3}, {1.8, 11.0, 3}, {1.7, 18.1, 3},
	}
	for _, tt := range tests {
		res, err := SimulateActivation(DefaultCellParams(tt.vpp), nil)
		if err != nil {
			t.Fatal(err)
		}
		sat := DefaultCellParams(tt.vpp).SaturationV()
		// The final simulated voltage should approach the saturation level;
		// compare the saturation model against the paper's percentages.
		loss := (1.2 - sat) / 1.2 * 100
		if math.Abs(loss-tt.lossPct) > tt.tol {
			t.Errorf("vpp=%v: saturation loss %.1f%%, want ~%.1f%%", tt.vpp, loss, tt.lossPct)
		}
		if res.FinalCellV > sat+1e-6 {
			t.Errorf("vpp=%v: cell voltage %.3f exceeded saturation %.3f", tt.vpp, res.FinalCellV, sat)
		}
	}
}

func TestTRASExceedsNominalBelow2V(t *testing.T) {
	// Obsv. 11: tRAS exceeds the nominal value when VPP < 2.0V.
	at25, err := SimulateActivation(DefaultCellParams(2.5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if at25.TRASminNS >= 35 {
		t.Errorf("tRAS at nominal VPP = %.1f, want < 35", at25.TRASminNS)
	}
	at18, err := SimulateActivation(DefaultCellParams(1.8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !at18.Restored || at18.TRASminNS <= 35 {
		t.Errorf("tRAS at 1.8V = %.1f (restored=%v), want > 35", at18.TRASminNS, at18.Restored)
	}
}

func TestWaveformProbeMonotoneBitline(t *testing.T) {
	// After sensing starts, the bitline should rise monotonically (within
	// numerical wiggle) toward VDD on the stored-one side.
	var times, volts []float64
	_, err := SimulateActivation(DefaultCellParams(2.5), func(tNS, vbl, _ float64) {
		times = append(times, tNS)
		volts = append(volts, vbl)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(volts) < 100 {
		t.Fatalf("probe saw only %d samples", len(volts))
	}
	last := volts[len(volts)-1]
	if last < 1.1 {
		t.Errorf("bitline ended at %.3f, want ~VDD", last)
	}
	for i := 1; i < len(volts); i++ {
		if times[i] > 8 && volts[i] < volts[i-1]-0.02 {
			t.Errorf("bitline dropped %.3f -> %.3f at t=%.2fns", volts[i-1], volts[i], times[i])
			break
		}
	}
}

func TestMonteCarloReliability(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo is slow")
	}
	hi, err := MonteCarlo(2.5, 60, 5, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if hi.ReliableFraction() != 1 {
		t.Errorf("2.5V reliability = %v, want 1.0", hi.ReliableFraction())
	}
	lo, err := MonteCarlo(1.5, 60, 5, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if lo.ReliableFraction() >= hi.ReliableFraction() {
		t.Errorf("1.5V reliability %v not below 2.5V %v (paper: unreliable <= 1.6V)",
			lo.ReliableFraction(), hi.ReliableFraction())
	}
	if lo.Unreliable == 0 {
		t.Error("no unreliable runs at 1.5V under 5% mismatch")
	}
}

func TestMonteCarloDistributionShifts(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo is slow")
	}
	hi, err := MonteCarlo(2.5, 40, 7, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := MonteCarlo(1.8, 40, 7, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if lo.MeanTRCDminNS() <= hi.MeanTRCDminNS() {
		t.Errorf("mean tRCDmin: 1.8V %.2f not above 2.5V %.2f", lo.MeanTRCDminNS(), hi.MeanTRCDminNS())
	}
	if lo.WorstTRCDminNS() <= hi.WorstTRCDminNS() {
		t.Errorf("worst tRCDmin: 1.8V %.2f not above 2.5V %.2f", lo.WorstTRCDminNS(), hi.WorstTRCDminNS())
	}
}

func TestVaryDeterministic(t *testing.T) {
	s1 := newStream(42)
	s2 := newStream(42)
	p1 := Vary(DefaultCellParams(2.5), s1, 0.05)
	p2 := Vary(DefaultCellParams(2.5), s2, 0.05)
	if p1.CellC != p2.CellC || p1.Access.VT0 != p2.Access.VT0 {
		t.Error("Vary not deterministic for equal streams")
	}
	if p1.CellC == DefaultCellParams(2.5).CellC {
		t.Error("Vary did not perturb parameters")
	}
}

func TestVaryBounds(t *testing.T) {
	base := DefaultCellParams(2.5)
	for i := 0; i < 50; i++ {
		p := Vary(base, newStream(uint64(i)), 0.05)
		if math.Abs(p.CellC/base.CellC-1) > 0.05+1e-12 {
			t.Fatalf("CellC varied by more than 5%%: %v", p.CellC/base.CellC)
		}
		if math.Abs(p.Access.VT0/base.Access.VT0-1) > 0.05+1e-12 {
			t.Fatalf("VT0 varied by more than 5%%")
		}
	}
}

// TestInvalidCellParams: the supply levels, step and horizon must each be
// finite and positive, and a rejection names the field. NaN used to pass
// the old `<= 0` checks and run to NaN voltages.
func TestInvalidCellParams(t *testing.T) {
	fields := []struct {
		name string
		set  func(*CellParams, float64)
	}{
		{"VDD", func(p *CellParams, v float64) { p.VDD = v }},
		{"VPP", func(p *CellParams, v float64) { p.VPP = v }},
		{"StepPS", func(p *CellParams, v float64) { p.StepPS = v }},
		{"MaxNS", func(p *CellParams, v float64) { p.MaxNS = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := DefaultCellParams(2.5)
			f.set(&p, v)
			want := fmt.Sprintf("%s %g is not a finite positive value", f.name, v)
			if err := p.validate(); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s=%g: validate() = %v, want an error containing %q", f.name, v, err, want)
			}
			if _, err := SimulateActivation(p, nil); err == nil {
				t.Errorf("%s=%g: SimulateActivation accepted it", f.name, v)
			}
		}
	}
	if err := DefaultCellParams(2.5).validate(); err != nil {
		t.Errorf("default parameters rejected: %v", err)
	}
}
