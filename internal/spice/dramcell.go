package spice

import (
	"fmt"
	"math"
)

// CellParams collects every parameter of the paper's SPICE study netlist
// (Table 2): one DRAM cell on a bitline with a cross-coupled sense
// amplifier, activated by a wordline driven to VPP.
type CellParams struct {
	VDD float64 // core voltage (bitlines precharge to VDD/2)
	VPP float64 // wordline high level

	CellC float64 // storage capacitor (F)
	CellR float64 // cell series resistance (ohm)
	BLC   float64 // total bitline capacitance (F), split as a pi model
	BLR   float64 // total bitline resistance (ohm)

	Access MOSParams // cell access transistor
	SAN1   MOSParams // sense-amp pull-down pair
	SAN2   MOSParams
	SAP1   MOSParams // sense-amp pull-up pair
	SAP2   MOSParams

	WLRampNS      float64 // wordline 0->VPP ramp time
	SenseEnableNS float64 // time the sense amplifier is strobed
	SenseRampNS   float64 // SAN/SAP rail ramp time

	// VTHFrac is the fraction of VDD the bitline must reach for the
	// activation to count as reliably complete (the VTH line of Fig. 8a).
	VTHFrac float64
	// RestoreFrac is the fraction of VDD the cell must recover to for
	// charge restoration to count as complete (bounded by the saturation
	// level the access transistor permits).
	RestoreFrac float64

	// StepPS is the base integration time step (the 25 ps measurement
	// grid). Measurements are always reported on it: adaptive runs quantize
	// threshold crossings back onto it (bit-identical to the full-grid
	// crossing), so downstream exact-quantile statistics and shard merges
	// never see off-grid values.
	StepPS float64
	MaxNS  float64 // simulation horizon
}

// DefaultCellParams returns the Table 2 netlist at the given VPP, with
// transistor model constants calibrated so the nominal-VPP behavior matches
// the paper's SPICE observations (tRCDmin ~11.6 ns at 2.5 V, restoration
// saturating at VPP - VT).
func DefaultCellParams(vpp float64) CellParams {
	return CellParams{
		VDD:   1.2,
		VPP:   vpp,
		CellC: 16.8e-15,
		CellR: 698,
		BLC:   100.5e-15,
		BLR:   6980,
		Access: MOSParams{
			Type: NMOS, W: 55e-9, L: 85e-9, VT0: 0.72, KP: 12e-6, Lambda: 0.02,
		},
		SAN1: MOSParams{Type: NMOS, W: 1.3e-6, L: 0.1e-6, VT0: 0.45, KP: 22e-6, Lambda: 0.05},
		SAN2: MOSParams{Type: NMOS, W: 1.3e-6, L: 0.1e-6, VT0: 0.45, KP: 22e-6, Lambda: 0.05},
		SAP1: MOSParams{Type: PMOS, W: 0.9e-6, L: 0.1e-6, VT0: 0.45, KP: 11e-6, Lambda: 0.05},
		SAP2: MOSParams{Type: PMOS, W: 0.9e-6, L: 0.1e-6, VT0: 0.45, KP: 11e-6, Lambda: 0.05},

		WLRampNS:      1.0,
		SenseEnableNS: 5.25,
		SenseRampNS:   1.0,
		VTHFrac:       0.9,
		RestoreFrac:   0.95,
		StepPS:        25,
		MaxNS:         120,
	}
}

// SaturationV returns the cell voltage the access transistor can restore to
// at this parameter set's VPP: min(VDD, VPP - VT).
func (p CellParams) SaturationV() float64 {
	return math.Min(p.VDD, p.VPP-p.Access.VT0)
}

// ActivationResult reports the measurements of one activation + restoration
// simulation.
type ActivationResult struct {
	// TRCDminNS is when the bitline first crossed the read-reliability
	// threshold (VTHFrac * VDD); 0 and Reliable=false if it never did.
	TRCDminNS float64
	// TRASminNS is when the cell voltage, after its charge-sharing dip,
	// recovered to the restoration target; 0 and Restored=false if never.
	TRASminNS float64
	// Reliable reports whether the bitline reached the read threshold.
	Reliable bool
	// Restored reports whether charge restoration completed.
	Restored bool
	// FinalCellV is the cell voltage at the simulation horizon.
	FinalCellV float64
	// Steps reports the integration work the run performed (base cells
	// covered vs implicit solves spent — equal on the fixed grid, solves
	// several-fold fewer under adaptive stepping).
	Steps StepStats
}

// Probe receives waveform samples during simulation. Passing one selects
// the stepping policy: a non-nil probe is handed every cell of the StepPS
// grid, so the run integrates the full grid; a nil probe lets the run step
// adaptively through quiescent stretches (see adaptive.go). Both report the
// same grid-quantized measurements.
type Probe func(tNS, vBitline, vCell float64)

// SimulateActivation runs the full activation: wordline ramps to VPP at
// t=0, charge sharing perturbs the bitline, the sense amplifier is strobed,
// and the cell is restored through the access transistor. It returns the
// tRCDmin / tRASmin measurements. It steps adaptively when probe is nil and
// integrates (and probes) every cell of the StepPS grid otherwise.
func SimulateActivation(p CellParams, probe Probe) (ActivationResult, error) {
	return simulateActivation(p, probe, NewTransient, probe == nil)
}

// SimulateActivationReference runs the same activation on the dense
// finite-difference reference engine (see NewTransientReference). It exists
// so the golden-equivalence tests and benchmarks can compare the
// incremental solver against the historical behavior. The reference always
// integrates the full fixed StepPS grid — it is the accuracy oracle the
// adaptive engine is validated against, so it never steps adaptively.
func SimulateActivationReference(p CellParams, probe Probe) (ActivationResult, error) {
	return simulateActivation(p, probe, NewTransientReference, false)
}

// cellNodes names the netlist's node ids, shared by the one-shot simulation
// path and the reusable Workspace.
type cellNodes struct {
	wl, cellC, cellN, blc, bls, blbc, blbs, san, sap int
}

// cellWaves holds the mutable source waveforms of the netlist. They are
// installed as *PWL so a Workspace can re-stamp the VPP level and rail
// timings in place without rebuilding the circuit.
type cellWaves struct {
	wl, san, sap *PWL
}

// buildCellCircuit assembles the Table 2 netlist. Element order is fixed —
// the Workspace re-stamp path relies on it to update values by index.
func buildCellCircuit(p CellParams) (*Circuit, cellNodes, cellWaves) {
	ckt := NewCircuit()
	var n cellNodes
	n.wl = ckt.Node("wl")
	n.cellC = ckt.Node("cellc") // storage capacitor plate
	n.cellN = ckt.Node("celln") // transistor side of the cell series R
	n.blc = ckt.Node("blc")     // bitline, cell end
	n.bls = ckt.Node("bls")     // bitline, sense end
	n.blbc = ckt.Node("blbc")   // reference bitline, far end
	n.blbs = ckt.Node("blbs")   // reference bitline, sense end
	n.san = ckt.Node("san")
	n.sap = ckt.Node("sap")

	ckt.C(n.cellC, Ground, p.CellC)
	ckt.R(n.cellC, n.cellN, p.CellR)
	ckt.MOS(n.blc, n.wl, n.cellN, p.Access)

	half := p.BLC / 2
	ckt.C(n.blc, Ground, half)
	ckt.R(n.blc, n.bls, p.BLR)
	ckt.C(n.bls, Ground, half)
	ckt.C(n.blbc, Ground, half)
	ckt.R(n.blbc, n.blbs, p.BLR)
	ckt.C(n.blbs, Ground, half)

	ckt.MOS(n.bls, n.blbs, n.san, p.SAN1)
	ckt.MOS(n.blbs, n.bls, n.san, p.SAN2)
	ckt.MOS(n.bls, n.blbs, n.sap, p.SAP1)
	ckt.MOS(n.blbs, n.bls, n.sap, p.SAP2)

	w := cellWaves{
		wl:  &PWL{Times: make([]float64, 2), Values: make([]float64, 2)},
		san: &PWL{Times: make([]float64, 3), Values: make([]float64, 3)},
		sap: &PWL{Times: make([]float64, 3), Values: make([]float64, 3)},
	}
	ckt.V(n.wl, Ground, w.wl)
	ckt.V(n.san, Ground, w.san)
	ckt.V(n.sap, Ground, w.sap)
	stampCellValues(ckt, n, w, p)
	return ckt, n, w
}

// stampCellValues writes the parameter-dependent element values, source
// waveforms, and initial conditions of the netlist into an already-built
// circuit. It runs both at construction and on Workspace reuse, so both
// paths see exactly the same values.
//
//detlint:hotpath witness=TestWorkspaceSimulateAllocs
func stampCellValues(ckt *Circuit, n cellNodes, w cellWaves, p CellParams) {
	// Element order matches buildCellCircuit.
	ckt.caps[0].farads = p.CellC
	half := p.BLC / 2
	for i := 1; i <= 4; i++ {
		ckt.caps[i].farads = half
	}
	ckt.resistors[0].ohms = p.CellR
	ckt.resistors[1].ohms = p.BLR
	ckt.resistors[2].ohms = p.BLR
	ckt.mosfets[0].params = p.Access
	ckt.mosfets[1].params = p.SAN1
	ckt.mosfets[2].params = p.SAN2
	ckt.mosfets[3].params = p.SAP1
	ckt.mosfets[4].params = p.SAP2

	ns := 1e-9
	vpre := p.VDD / 2
	w.wl.Times[0], w.wl.Times[1] = 0, p.WLRampNS*ns
	w.wl.Values[0], w.wl.Values[1] = 0, p.VPP
	w.san.Times[0], w.san.Times[1], w.san.Times[2] = 0, p.SenseEnableNS*ns, (p.SenseEnableNS+p.SenseRampNS)*ns
	w.san.Values[0], w.san.Values[1], w.san.Values[2] = vpre, vpre, 0
	w.sap.Times[0], w.sap.Times[1], w.sap.Times[2] = 0, p.SenseEnableNS*ns, (p.SenseEnableNS+p.SenseRampNS)*ns
	w.sap.Values[0], w.sap.Values[1], w.sap.Values[2] = vpre, vpre, p.VDD

	// Initial conditions: bitlines precharged, cell holding a '1' at the
	// saturation level its access transistor allowed during the previous
	// restoration (this is the §6.1/§6.2 coupling: reduced VPP stores less
	// charge, shrinking the sensing perturbation).
	vcell0 := p.SaturationV()
	for _, node := range [...]int{n.blc, n.bls, n.blbc, n.blbs} {
		ckt.SetInitial(node, vpre)
	}
	ckt.SetInitial(n.cellC, vcell0)
	ckt.SetInitial(n.cellN, vcell0)
	ckt.SetInitial(n.san, vpre)
	ckt.SetInitial(n.sap, vpre)
}

// measureActivation steps the prepared engine through the activation and
// extracts the tRCDmin / tRASmin measurements. Both the one-shot paths and
// the reusable Workspace run exactly this loop over the stepper, which
// coarsens only when adaptive is set and the incremental engine backs the
// analysis; otherwise it covers the grid one cell per solve. Samples land
// on accepted step endpoints (always base-grid cells); a threshold crossing
// observed at a coarse endpoint is rewound and re-integrated cell by cell,
// so the reported crossing times are the full grid's own — bit-identical
// floats, because the stepper's grid clock replays the full grid's repeated
// time addition.
func measureActivation(tr *Transient, n cellNodes, p CellParams, probe Probe, adaptive bool) (ActivationResult, error) {
	var res ActivationResult
	ns := 1e-9
	vth := p.VTHFrac * p.VDD
	// Restoration completes when the cell recovers to the target fraction of
	// VDD, bounded by the saturation level the access transistor permits
	// (approached asymptotically, hence the 50 mV tail allowance).
	vcell0 := p.SaturationV()
	target := math.Min(p.RestoreFrac*p.VDD, vcell0-0.05)
	minCell := vcell0
	dipped := false
	horizon := p.MaxNS * ns

	st := tr.newAdaptiveStepper(horizon, adaptive)
	for st.tGrid < horizon {
		m, err := st.step()
		if err != nil {
			res.Steps = st.stats
			res.Steps.NewtonIters = tr.newtIters
			return res, err
		}
		tNS := st.tGrid / ns
		vbl := tr.V(n.bls)
		vcell := tr.V(n.cellC)
		if m > 1 {
			// Crossings must be localized on the base grid, not attributed
			// to a coarse endpoint: rewind and re-integrate the stretch.
			crossedRead := !res.Reliable && vbl >= vth
			crossedRestore := dipped && !res.Restored && vcell >= target && vcell > minCell+0.01
			if crossedRead || crossedRestore {
				st.rewind()
				continue
			}
		}
		if probe != nil {
			probe(tNS, vbl, vcell)
		}
		if !res.Reliable && vbl >= vth {
			res.Reliable = true
			res.TRCDminNS = tNS
		}
		if vcell < minCell {
			minCell = vcell
			if vcell < vcell0-0.02 {
				dipped = true
			}
		}
		if dipped && !res.Restored && vcell >= target && vcell > minCell+0.01 {
			res.Restored = true
			res.TRASminNS = tNS
		}
		res.FinalCellV = vcell
		if res.Reliable && res.Restored {
			break
		}
	}
	res.Steps = st.stats
	res.Steps.NewtonIters = tr.newtIters
	return res, nil
}

// simulateActivation runs one activation on a fresh engine. adaptive
// selects the stepping policy; the exported entry points derive it from the
// probe, and tests pair a probe with adaptive stepping through it directly.
func simulateActivation(p CellParams, probe Probe, newEngine func(*Circuit, float64) *Transient, adaptive bool) (ActivationResult, error) {
	if err := p.validate(); err != nil {
		return ActivationResult{}, err
	}
	ckt, nodes, _ := buildCellCircuit(p)
	tr := newEngine(ckt, p.StepPS*1e-12)
	return measureActivation(tr, nodes, p, probe, adaptive)
}

// validate rejects parameter sets the engine cannot integrate: the supply
// levels, the step and the horizon must each be finite and positive (NaN
// fails every comparison, so it would otherwise slip through as a run of
// NaN voltages).
func (p CellParams) validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"VDD", p.VDD}, {"VPP", p.VPP}, {"StepPS", p.StepPS}, {"MaxNS", p.MaxNS}} {
		if !(f.v > 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("spice: invalid cell parameters: %s %g is not a finite positive value", f.name, f.v)
		}
	}
	return nil
}
