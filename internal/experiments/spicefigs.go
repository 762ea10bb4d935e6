package experiments

import (
	"context"
	"fmt"

	"github.com/dramstudy/rhvpp/internal/report"
	"github.com/dramstudy/rhvpp/internal/spice"
)

// spiceSweepVPPs are the voltage levels of the paper's SPICE study
// (1.7-2.5 V in 0.1 V steps for the distributions; waveforms show the same
// range).
var spiceSweepVPPs = []float64{2.5, 2.4, 2.3, 2.2, 2.1, 2.0, 1.9, 1.8, 1.7}

// Table2 emits the SPICE netlist parameters.
func Table2(enc report.Encoder) error {
	p := spice.DefaultCellParams(2.5)
	t := &report.Table{
		Title:   "Table 2: key parameters used in SPICE simulations",
		Headers: []string{"component", "parameters"},
	}
	t.Add("DRAM Cell", fmt.Sprintf("C: %.1f fF, R: %.0f Ohm", p.CellC*1e15, p.CellR))
	t.Add("Bitline", fmt.Sprintf("C: %.1f fF, R: %.0f Ohm", p.BLC*1e15, p.BLR))
	t.Add("Cell Access NMOS", fmt.Sprintf("W: %.0f nm, L: %.0f nm", p.Access.W*1e9, p.Access.L*1e9))
	t.Add("Sense Amp. NMOS", fmt.Sprintf("W: %.1f um, L: %.1f um", p.SAN1.W*1e6, p.SAN1.L*1e6))
	t.Add("Sense Amp. PMOS", fmt.Sprintf("W: %.1f um, L: %.1f um", p.SAP1.W*1e6, p.SAP1.L*1e6))
	return enc.Table(t)
}

// Waveforms holds the Fig. 8a / 9a transient traces per VPP level.
type Waveforms struct {
	VPP []float64
	// Bitline[i] and Cell[i] are the traces for VPP[i]; Times is shared.
	Times   [][]float64
	Bitline [][]float64
	Cell    [][]float64
}

// RunWaveforms simulates the activation waveform at each VPP level.
func RunWaveforms(ctx context.Context) (Waveforms, error) {
	var wf Waveforms
	for _, vpp := range spiceSweepVPPs {
		if err := ctx.Err(); err != nil {
			return wf, err
		}
		var ts, bl, cell []float64
		p := spice.DefaultCellParams(vpp)
		p.MaxNS = 100
		if _, err := spice.SimulateActivation(p, func(tNS, vbl, vcell float64) {
			ts = append(ts, tNS)
			bl = append(bl, vbl)
			cell = append(cell, vcell)
		}); err != nil {
			return wf, fmt.Errorf("waveform at %.1fV: %w", vpp, err)
		}
		wf.VPP = append(wf.VPP, vpp)
		wf.Times = append(wf.Times, ts)
		wf.Bitline = append(wf.Bitline, bl)
		wf.Cell = append(wf.Cell, cell)
	}
	return wf, nil
}

// RenderFig8a plots the bitline voltage during activation.
func (wf Waveforms) RenderFig8a(enc report.Encoder) error {
	return wf.render(enc, "Fig. 8a: bitline voltage during row activation (VTH = 1.08V)", wf.Bitline, 40)
}

// RenderFig9a plots the cell capacitor voltage during restoration.
func (wf Waveforms) RenderFig9a(enc report.Encoder) error {
	return wf.render(enc, "Fig. 9a: cell capacitor voltage during charge restoration", wf.Cell, 100)
}

func (wf Waveforms) render(enc report.Encoder, title string, traces [][]float64, maxNS float64) error {
	plot := report.LinePlot{Title: title, XLabel: "time (ns)", YLabel: "V", Width: 70, Height: 14}
	for i, vpp := range wf.VPP {
		if i%2 == 1 {
			continue // subsample the legend for readability
		}
		s := report.Series{Name: fmt.Sprintf("VPP=%.1fV", vpp)}
		for j, t := range wf.Times[i] {
			if t > maxNS {
				break
			}
			if j%8 == 0 {
				s.X = append(s.X, t)
				s.Y = append(s.Y, traces[i][j])
			}
		}
		plot.Series = append(plot.Series, s)
	}
	return enc.Plot(&plot)
}

// MCStudy is the Fig. 8b / 9b Monte-Carlo campaign.
type MCStudy struct {
	Results []spice.MCResult
}

// RunMCStudy executes the Monte-Carlo sweep (runs per level from Options)
// over a single global run queue: all levels' runs feed one worker pool
// (Options.Jobs), so workers stay busy across level boundaries even when a
// slowly-converging low-VPP level would otherwise drain a per-level pool.
// Every run draws from its own index-derived generator and folds into the
// per-level streaming accumulators in (level, run) order, so results are
// byte-identical at any worker count while aggregation memory stays
// independent of the run count.
func RunMCStudy(ctx context.Context, o Options) (MCStudy, error) {
	results, err := spice.RunMonteCarloSweep(ctx, spiceSweepVPPs, mcConfig(o))
	if err != nil {
		return MCStudy{}, fmt.Errorf("Monte Carlo sweep: %w", err)
	}
	return MCStudy{Results: results}, nil
}

// RenderFig8b emits the tRCDmin distribution per VPP level, straight from
// the per-level streaming summaries.
func (st MCStudy) RenderFig8b(enc report.Encoder) error {
	t := &report.Table{
		Title:   "Fig. 8b: minimum reliable activation latency distribution (Monte Carlo)",
		Headers: []string{"VPP", "mean tRCDmin (ns)", "P95", "worst", "reliable runs", "no-converge"},
	}
	for _, r := range st.Results {
		p95, _ := r.TRCDmin.Percentile(95)
		t.Add(fmt.Sprintf("%.1f", r.VPP), fmt.Sprintf("%.2f", r.MeanTRCDminNS()),
			fmt.Sprintf("%.2f", p95), fmt.Sprintf("%.2f", r.WorstTRCDminNS()),
			fmt.Sprintf("%.1f%%", r.ReliableFraction()*100),
			fmt.Sprintf("%d", r.NoConverge))
	}
	return enc.Table(t)
}

// RenderFig9b emits the tRASmin distribution per VPP level.
func (st MCStudy) RenderFig9b(enc report.Encoder) error {
	t := &report.Table{
		Title:   "Fig. 9b: minimum reliable charge restoration latency distribution (Monte Carlo, nominal tRAS = 35ns)",
		Headers: []string{"VPP", "mean tRASmin (ns)", "P95", "worst", "restored runs", "no-converge"},
	}
	for _, r := range st.Results {
		p95, _ := r.TRASmin.Percentile(95)
		restored := float64(r.TRASmin.N()) / float64(r.Runs) * 100
		t.Add(fmt.Sprintf("%.1f", r.VPP), fmt.Sprintf("%.2f", r.TRASmin.Mean()),
			fmt.Sprintf("%.2f", p95), fmt.Sprintf("%.2f", r.TRASmin.Max()),
			fmt.Sprintf("%.1f%%", restored),
			fmt.Sprintf("%d", r.NoConverge))
	}
	return enc.Table(t)
}
