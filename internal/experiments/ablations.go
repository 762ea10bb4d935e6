package experiments

import (
	"context"
	"fmt"

	"github.com/dramstudy/rhvpp/internal/core"
	"github.com/dramstudy/rhvpp/internal/dram"
	"github.com/dramstudy/rhvpp/internal/infra"
	"github.com/dramstudy/rhvpp/internal/mitigation"
	"github.com/dramstudy/rhvpp/internal/pattern"
	"github.com/dramstudy/rhvpp/internal/physics"
	"github.com/dramstudy/rhvpp/internal/report"
	"github.com/dramstudy/rhvpp/internal/softmc"
)

// AttackComparison quantifies why the paper uses double-sided attacks
// (§4.2): flips per victim for single-, double-, and many-sided attacks at
// the same per-aggressor activation budget.
type AttackComparison struct {
	HC          int
	SingleFlips int
	DoubleFlips int
	// ManySidedFlips uses TRRespass-style N aggressor pairs sharing the
	// same total activation budget, measured on the same victims.
	ManySidedFlips int
	Pairs          int
}

// RunAttackComparison hammers sample victims with the three attack shapes.
func RunAttackComparison(ctx context.Context, o Options, moduleName string, hc int) (AttackComparison, error) {
	prof, ok := physics.ProfileByName(moduleName)
	if !ok {
		return AttackComparison{}, fmt.Errorf("unknown module %s", moduleName)
	}
	tb := infra.NewTestbed(prof, o.Geometry, o.Seed)
	ctrl := tb.Controller
	cmp := AttackComparison{HC: hc, Pairs: 4}
	sch := tb.Module.Scheme()

	countVictimFlips := func(victimPhys int, attack func(victim, lo, hi int) error) (int, error) {
		victim := sch.PhysicalToLogical(victimPhys)
		lo := sch.PhysicalToLogical(victimPhys - 1)
		hi := sch.PhysicalToLogical(victimPhys + 1)
		if err := ctrl.InitializeRow(0, victim, 0xFF); err != nil {
			return 0, err
		}
		if err := ctrl.InitializeRow(0, lo, 0x00); err != nil {
			return 0, err
		}
		if err := ctrl.InitializeRow(0, hi, 0x00); err != nil {
			return 0, err
		}
		if err := attack(victim, lo, hi); err != nil {
			return 0, err
		}
		return ctrl.ReadRowSafeMismatch(0, victim, pattern.RowStripeFF.Byte())
	}

	victims := []int{100, 140, 180, 220, 260, 300}
	for i, v := range victims {
		if err := ctx.Err(); err != nil {
			return cmp, err
		}
		base := v + i // avoid reusing rows across shapes
		n, err := countVictimFlips(base, func(_, lo, _ int) error {
			return ctrl.Hammer(0, lo, hc)
		})
		if err != nil {
			return cmp, err
		}
		cmp.SingleFlips += n

		n, err = countVictimFlips(base+60, func(_, lo, hi int) error {
			return ctrl.HammerDoubleSided(0, lo, hi, hc)
		})
		if err != nil {
			return cmp, err
		}
		cmp.DoubleFlips += n

		// Many-sided: the per-aggressor budget is split across extra pairs
		// elsewhere in the bank (as TRRespass does to defeat TRR trackers),
		// so each victim sees only a fraction of the activations.
		n, err = countVictimFlips(base+120, func(_, lo, hi int) error {
			per := hc / cmp.Pairs
			if err := ctrl.HammerDoubleSided(0, lo, hi, per); err != nil {
				return err
			}
			for p := 1; p < cmp.Pairs; p++ {
				decoyPhys := sch.LogicalToPhysical(lo) + 40*p
				dLo := sch.PhysicalToLogical(decoyPhys)
				dHi := sch.PhysicalToLogical(decoyPhys + 2)
				if err := ctrl.HammerDoubleSided(0, dLo, dHi, per); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return cmp, err
		}
		cmp.ManySidedFlips += n
	}
	return cmp, nil
}

// Render emits the comparison.
func (c AttackComparison) Render(enc report.Encoder) error {
	t := &report.Table{
		Title:   fmt.Sprintf("Ablation: attack shapes at %d activations per aggressor", c.HC),
		Headers: []string{"attack", "total victim flips"},
	}
	t.Add("single-sided", c.SingleFlips)
	t.Add("double-sided", c.DoubleFlips)
	t.Add(fmt.Sprintf("many-sided (%d pairs, split budget)", c.Pairs), c.ManySidedFlips)
	return enc.Table(t)
}

// WCDPStability is the §4.2 footnote-9 ablation: how often the worst-case
// data pattern changes between nominal VPP and VPPmin, and how much HCfirst
// deviates when the nominal WCDP is reused at VPPmin.
type WCDPStability struct {
	RowsTested   int
	RowsChanged  int
	MaxDeviation float64 // |HCfirst(nominal WCDP) / HCfirst(re-profiled) - 1|
}

// RunWCDPStability re-profiles WCDP at VPPmin on a sample module.
func RunWCDPStability(ctx context.Context, o Options, moduleName string) (WCDPStability, error) {
	prof, ok := physics.ProfileByName(moduleName)
	if !ok {
		return WCDPStability{}, fmt.Errorf("unknown module %s", moduleName)
	}
	tb := infra.NewTestbed(prof, o.Geometry, o.Seed)
	// Pattern deltas can sit below single-measurement noise; profile WCDP
	// with extra repetitions so flapping reflects genuine VPP sensitivity
	// rather than measurement noise.
	cfg := o.Config
	if cfg.WCDPIterations < 4 {
		cfg.WCDPIterations = 4
	}
	tester := core.NewTester(tb.Controller, cfg).WithContext(ctx)
	rows := selectVictims(tester, o)
	var st WCDPStability
	for _, row := range rows {
		if err := tb.SetVPP(physics.VPPNominal); err != nil {
			return st, err
		}
		nomWCDP, err := tester.SelectWCDP(row)
		if err != nil {
			return st, err
		}
		if err := tb.SetVPP(prof.VPPMin); err != nil {
			return st, err
		}
		minWCDP, err := tester.SelectWCDP(row)
		if err != nil {
			return st, err
		}
		st.RowsTested++
		if nomWCDP != minWCDP {
			st.RowsChanged++
			hcNom, err := tester.HCFirstSearch(row, nomWCDP, o.Config.WCDPIterations)
			if err != nil {
				return st, err
			}
			hcRe, err := tester.HCFirstSearch(row, minWCDP, o.Config.WCDPIterations)
			if err != nil {
				return st, err
			}
			if hcRe > 0 {
				dev := float64(hcNom)/float64(hcRe) - 1
				if dev < 0 {
					dev = -dev
				}
				if dev > st.MaxDeviation {
					st.MaxDeviation = dev
				}
			}
		}
	}
	return st, nil
}

// Render emits the stability ablation.
func (s WCDPStability) Render(enc report.Encoder) error {
	t := &report.Table{
		Title:   "Ablation: WCDP stability across VPP (paper: 2.4% of rows change, <9% HCfirst deviation)",
		Headers: []string{"metric", "value"},
	}
	t.Add("rows tested", s.RowsTested)
	frac := 0.0
	if s.RowsTested > 0 {
		frac = float64(s.RowsChanged) / float64(s.RowsTested)
	}
	t.Add("rows whose WCDP changed", fmt.Sprintf("%d (%.1f%%)", s.RowsChanged, frac*100))
	t.Add("max HCfirst deviation from reusing nominal WCDP", fmt.Sprintf("%.1f%%", s.MaxDeviation*100))
	return enc.Table(t)
}

// TRRAblation shows why the methodology starves TRR: the same double-sided
// attack with and without interleaved REF commands on a TRR-equipped module.
type TRRAblation struct {
	FlipsStarved    int // no REF issued (the paper's method)
	FlipsWithREF    int // REF interleaved: TRR absorbs the attack
	HCPerSide       int
	VictimsAttacked int
}

// RunTRRAblation attacks a TRR-equipped clone of a module both ways.
func RunTRRAblation(ctx context.Context, o Options, moduleName string, hc int) (TRRAblation, error) {
	prof, ok := physics.ProfileByName(moduleName)
	if !ok {
		return TRRAblation{}, fmt.Errorf("unknown module %s", moduleName)
	}
	ab := TRRAblation{HCPerSide: hc}

	run := func(withREF bool) (int, error) {
		mod := dram.NewModule(prof, o.Geometry, o.Seed, dram.WithTRR(16))
		ctrl := softmc.New(mod)
		sch := mod.Scheme()
		total := 0
		for _, victimPhys := range []int{100, 160, 220} {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			victim := sch.PhysicalToLogical(victimPhys)
			lo := sch.PhysicalToLogical(victimPhys - 1)
			hi := sch.PhysicalToLogical(victimPhys + 1)
			for _, init := range []struct {
				row  int
				fill byte
			}{{victim, 0xFF}, {lo, 0x00}, {hi, 0x00}} {
				if err := ctrl.InitializeRow(0, init.row, init.fill); err != nil {
					return 0, err
				}
			}
			const rounds = 64
			per := hc / rounds
			for r := 0; r < rounds; r++ {
				if err := ctrl.HammerDoubleSided(0, lo, hi, per); err != nil {
					return 0, err
				}
				if withREF {
					if err := ctrl.Refresh(); err != nil {
						return 0, err
					}
				}
			}
			data, err := ctrl.ReadRow(0, victim)
			if err != nil {
				return 0, err
			}
			total += pattern.RowStripeFF.CountMismatch(data)
		}
		return total, nil
	}

	var err error
	ab.VictimsAttacked = 3
	if ab.FlipsStarved, err = run(false); err != nil {
		return ab, err
	}
	if ab.FlipsWithREF, err = run(true); err != nil {
		return ab, err
	}
	return ab, nil
}

// Render emits the TRR ablation.
func (a TRRAblation) Render(enc report.Encoder) error {
	t := &report.Table{
		Title:   fmt.Sprintf("Ablation: TRR interaction (%d hammers/side, %d victims)", a.HCPerSide, a.VictimsAttacked),
		Headers: []string{"refresh commands", "victim flips"},
	}
	t.Add("starved (paper's method)", a.FlipsStarved)
	t.Add("interleaved (TRR active)", a.FlipsWithREF)
	return enc.Table(t)
}

// DefenseCost quantifies how reduced VPP cheapens deployed defenses: PARA's
// required refresh probability and Graphene's counter budget at each
// measured HCfirst(VPP).
type DefenseCost struct {
	Module    string
	VPP       []float64
	HCFirst   []float64
	PARAProb  []float64
	Graphene  []int
	TargetWin float64
}

// RunDefenseCost derives defense provisioning from a module sweep.
func RunDefenseCost(sweep ModuleSweep) (DefenseCost, error) {
	// A 64 ms refresh window at ~47ns per activation allows ~1.36M
	// activations.
	const activationsPerWindow = 1_360_000
	dc := DefenseCost{Module: sweep.Profile.Name, TargetWin: 1e-9}
	for _, p := range sweep.Points {
		dc.VPP = append(dc.VPP, p.VPP)
		dc.HCFirst = append(dc.HCFirst, p.ModuleHCFirst)
		prob, err := mitigation.RequiredP(p.ModuleHCFirst, dc.TargetWin)
		if err != nil {
			return dc, err
		}
		dc.PARAProb = append(dc.PARAProb, prob)
		dc.Graphene = append(dc.Graphene, mitigation.CountersRequired(activationsPerWindow, p.ModuleHCFirst, 4))
	}
	return dc, nil
}

// Render emits the defense-cost table.
func (d DefenseCost) Render(enc report.Encoder) error {
	t := &report.Table{
		Title:   fmt.Sprintf("Ablation: defense cost vs VPP on %s (PARA target %.0e)", d.Module, d.TargetWin),
		Headers: []string{"VPP", "HCfirst", "PARA refresh prob", "Graphene counters"},
	}
	for i := range d.VPP {
		t.Add(fmt.Sprintf("%.1f", d.VPP[i]), d.HCFirst[i],
			fmt.Sprintf("%.2e", d.PARAProb[i]), d.Graphene[i])
	}
	return enc.Table(t)
}

// SECDEDCoverage extends Obsv. 14: the fraction of retention-failing rows
// fully correctable by SECDED as the refresh window stretches past the first
// failing window.
type SECDEDCoverage struct {
	Module    string
	WindowsMS []float64
	// FailingRows and CorrectableRows per window.
	FailingRows     []int
	CorrectableRows []int
}

// RunSECDEDCoverage measures word-level correctability per window at VPPmin.
func RunSECDEDCoverage(ctx context.Context, o Options, moduleName string) (SECDEDCoverage, error) {
	prof, ok := physics.ProfileByName(moduleName)
	if !ok {
		return SECDEDCoverage{}, fmt.Errorf("unknown module %s", moduleName)
	}
	tb := infra.NewTestbed(prof, o.Geometry, o.Seed)
	if err := tb.SetTemperature(physics.RetentionTestTempC); err != nil {
		return SECDEDCoverage{}, err
	}
	if err := tb.SetVPP(prof.VPPMin); err != nil {
		return SECDEDCoverage{}, err
	}
	ctrl := tb.Controller
	rows := core.SelectRows(o.Geometry, o.Chunks, o.RowsPerChunk)
	cov := SECDEDCoverage{Module: moduleName, WindowsMS: []float64{64, 128, 256, 512, 1024, 2048}}
	const fill = 0xAA
	for _, win := range cov.WindowsMS {
		if err := ctx.Err(); err != nil {
			return cov, err
		}
		failing, correctable := 0, 0
		for _, row := range rows {
			if err := ctrl.InitializeRow(0, row, fill); err != nil {
				return cov, err
			}
			if err := ctrl.WaitMS(win); err != nil {
				return cov, err
			}
			data, err := ctrl.ReadRowSafe(0, row)
			if err != nil {
				return cov, err
			}
			if pattern.CheckerAA.CountMismatch(data) == 0 {
				continue
			}
			failing++
			if countSECDEDSafe(data, fill) {
				correctable++
			}
		}
		cov.FailingRows = append(cov.FailingRows, failing)
		cov.CorrectableRows = append(cov.CorrectableRows, correctable)
	}
	return cov, nil
}

func countSECDEDSafe(data []byte, fill byte) bool {
	for off := 0; off+8 <= len(data); off += 8 {
		flips := 0
		for _, b := range data[off : off+8] {
			x := b ^ fill
			for x != 0 {
				x &= x - 1
				flips++
			}
		}
		if flips > 1 {
			return false
		}
	}
	return true
}

// Render emits SECDED coverage per window.
func (c SECDEDCoverage) Render(enc report.Encoder) error {
	t := &report.Table{
		Title:   fmt.Sprintf("Ablation: SECDED coverage of retention failures on %s at VPPmin", c.Module),
		Headers: []string{"window (ms)", "failing rows", "fully correctable", "coverage"},
	}
	for i := range c.WindowsMS {
		covPct := 100.0
		if c.FailingRows[i] > 0 {
			covPct = float64(c.CorrectableRows[i]) / float64(c.FailingRows[i]) * 100
		}
		t.Add(c.WindowsMS[i], c.FailingRows[i], c.CorrectableRows[i], fmt.Sprintf("%.0f%%", covPct))
	}
	return enc.Table(t)
}
