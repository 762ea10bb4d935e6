package mitigation

import (
	"sort"

	"github.com/dramstudy/rhvpp/internal/core"
)

// RefreshPlan records which rows need the doubled refresh rate (Obsv. 15:
// only 16.4% / 5.0% of rows contain erroneous words at the smallest failing
// window, so refreshing just those twice as often eliminates all retention
// bit flips at reduced VPP).
type RefreshPlan struct {
	// FastRows refresh every NominalWindowMS/2; all others at the nominal
	// rate.
	FastRows map[int]bool
	// NominalWindowMS is the baseline refresh window (64 ms).
	NominalWindowMS float64
	// TotalRows is the profiled row count (for Fraction).
	TotalRows int
}

// BuildRefreshPlan derives the plan from Alg. 3 retention profiling: any row
// that flips at the nominal window (but not below) gets the doubled rate.
func BuildRefreshPlan(results []core.RetentionResult, nominalWindowMS float64) RefreshPlan {
	plan := RefreshPlan{
		FastRows:        make(map[int]bool),
		NominalWindowMS: nominalWindowMS,
		TotalRows:       len(results),
	}
	for _, r := range results {
		first := r.FirstFailingWindowMS()
		if first > 0 && first <= nominalWindowMS {
			plan.FastRows[r.Row] = true
		}
	}
	return plan
}

// Fraction returns the share of profiled rows needing the doubled rate.
func (p RefreshPlan) Fraction() float64 {
	if p.TotalRows == 0 {
		return 0
	}
	return float64(len(p.FastRows)) / float64(p.TotalRows)
}

// WindowFor returns the refresh window a row must receive under the plan.
func (p RefreshPlan) WindowFor(row int) float64 {
	if p.FastRows[row] {
		return p.NominalWindowMS / 2
	}
	return p.NominalWindowMS
}

// Verify replays the plan against the device: every profiled row is
// initialized, left unrefreshed for exactly its planned window, and read
// back; it returns the number of rows that still flipped (0 means the plan
// eliminates all retention errors).
func Verify(t *core.Tester, plan RefreshPlan, rows []int, fill byte) (failed int, err error) {
	ctrl := t.Controller()
	bank := t.Config().Bank
	for _, row := range rows {
		if err := ctrl.InitializeRow(bank, row, fill); err != nil {
			return failed, err
		}
		if err := ctrl.WaitMS(plan.WindowFor(row)); err != nil {
			return failed, err
		}
		flips, err := ctrl.ReadRowSafeMismatch(bank, row, fill)
		if err != nil {
			return failed, err
		}
		if flips > 0 {
			failed++
		}
	}
	return failed, nil
}

// FineRefreshPlan assigns each retention-weak row an individual refresh
// window just below its measured first-failing window, instead of a blanket
// 2x rate — the finer granularity the paper's footnote 14 leaves to future
// work. Rows absent from the map use the nominal window.
type FineRefreshPlan struct {
	// WindowMS maps weak rows to their assigned refresh windows.
	WindowMS map[int]float64
	// NominalWindowMS is the baseline window for all other rows.
	NominalWindowMS float64
	// Safety derates the measured first-failing window (e.g. 0.8).
	Safety float64
	// TotalRows is the profiled row count.
	TotalRows int
}

// BuildFineRefreshPlan profiles each row's first failing window within
// (nominal/2, nominal] at the given resolution and assigns derated windows.
// Rows failing at or below nominal/2 are rejected with an error (they would
// need more than a 2x rate; none exist in the tested population).
func BuildFineRefreshPlan(t *core.Tester, rows []int, nominalMS, resMS, safety float64) (FineRefreshPlan, error) {
	plan := FineRefreshPlan{
		WindowMS:        make(map[int]float64),
		NominalWindowMS: nominalMS,
		Safety:          safety,
		TotalRows:       len(rows),
	}
	for _, row := range rows {
		first, err := t.RetentionFirstFailMS(row, 0, nominalMS/2, nominalMS, resMS)
		if err != nil {
			return plan, err
		}
		if first == 0 {
			continue // never fails at the nominal window
		}
		plan.WindowMS[row] = first * safety
	}
	return plan, nil
}

// WindowFor returns the refresh window assigned to a row.
func (p FineRefreshPlan) WindowFor(row int) float64 {
	if w, ok := p.WindowMS[row]; ok {
		return w
	}
	return p.NominalWindowMS
}

// RefreshCostVsNominal returns the plan's total refresh-rate cost relative
// to refreshing everything at the nominal window (1.0 = no overhead). Each
// row contributes rate nominal/window.
func (p FineRefreshPlan) RefreshCostVsNominal() float64 {
	if p.TotalRows == 0 {
		return 1
	}
	cost := float64(p.TotalRows - len(p.WindowMS)) // nominal-rate rows
	// Fold in sorted row order: float addition is not associative, so a
	// map-order walk would make the low bits of the cost depend on the run.
	rows := make([]int, 0, len(p.WindowMS))
	for r := range p.WindowMS {
		rows = append(rows, r)
	}
	sort.Ints(rows)
	for _, r := range rows {
		cost += p.NominalWindowMS / p.WindowMS[r]
	}
	return cost / float64(p.TotalRows)
}

// VerifyFine replays the fine plan against the device, returning rows that
// still flipped.
func VerifyFine(t *core.Tester, plan FineRefreshPlan, rows []int, fill byte) (failed int, err error) {
	ctrl := t.Controller()
	bank := t.Config().Bank
	for _, row := range rows {
		if err := ctrl.InitializeRow(bank, row, fill); err != nil {
			return failed, err
		}
		if err := ctrl.WaitMS(plan.WindowFor(row)); err != nil {
			return failed, err
		}
		flips, err := ctrl.ReadRowSafeMismatch(bank, row, fill)
		if err != nil {
			return failed, err
		}
		if flips > 0 {
			failed++
		}
	}
	return failed, nil
}
