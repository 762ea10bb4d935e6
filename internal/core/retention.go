package core

import (
	"github.com/dramstudy/rhvpp/internal/pattern"
)

// RetentionPoint is one (refresh window, BER) sample of Alg. 3.
type RetentionPoint struct {
	WindowMS float64
	// BER is the worst-case bit error rate across iterations.
	BER float64
}

// RetentionResult is the per-row outcome of the Alg. 3 sweep.
type RetentionResult struct {
	Row    int
	WCDP   pattern.Kind
	Points []RetentionPoint
}

// FirstFailingWindowMS returns the smallest tested refresh window with a
// non-zero BER, or 0 if the row never failed.
func (r RetentionResult) FirstFailingWindowMS() float64 {
	for _, p := range r.Points {
		if p.BER > 0 {
			return p.WindowMS
		}
	}
	return 0
}

// BERAt returns the measured BER at the given window (0 if not tested).
func (r RetentionResult) BERAt(windowMS float64) float64 {
	for _, p := range r.Points {
		if p.WindowMS == windowMS {
			return p.BER
		}
	}
	return 0
}

// measureRetentionBER initializes the row, waits one refresh window with
// refresh disabled, reads the row back, and returns its BER.
func (t *Tester) measureRetentionBER(row int, pat pattern.Kind, windowMS float64) (float64, error) {
	b := t.cfg.Bank
	if err := t.ctrl.InitializeRow(b, row, pat.Byte()); err != nil {
		return 0, err
	}
	if err := t.ctrl.WaitMS(windowMS); err != nil {
		return 0, err
	}
	flips, err := t.ctrl.ReadRowSafeMismatch(b, row, pat.Byte())
	if err != nil {
		return 0, err
	}
	return float64(flips) / float64(t.rowBits()), nil
}

// RetentionSweep implements Alg. 3 for one row: BER across the ladder of
// refresh windows, recording the worst case across iterations at each
// window.
func (t *Tester) RetentionSweep(row int, wcdp pattern.Kind) (RetentionResult, error) {
	var err error
	if !wcdp.Valid() {
		wcdp, err = t.SelectRetentionWCDP(row)
		if err != nil {
			return RetentionResult{}, err
		}
	}
	res := RetentionResult{Row: row, WCDP: wcdp}
	for _, win := range t.cfg.RetentionWindowsMS {
		if err := t.interrupted(); err != nil {
			return RetentionResult{}, err
		}
		worst := 0.0
		for i := 0; i < t.cfg.Iterations; i++ {
			ber, err := t.measureRetentionBER(row, wcdp, win)
			if err != nil {
				return RetentionResult{}, err
			}
			if ber > worst {
				worst = ber
			}
		}
		res.Points = append(res.Points, RetentionPoint{WindowMS: win, BER: worst})
	}
	return res, nil
}

// SelectRetentionWCDP implements the §4.4 pattern choice: the pattern that
// causes a bit flip at the smallest refresh window, ties broken by the
// largest BER at the longest window.
func (t *Tester) SelectRetentionWCDP(row int) (pattern.Kind, error) {
	windows := t.cfg.RetentionWindowsMS
	if len(windows) == 0 {
		return pattern.RowStripeFF, nil
	}
	longest := windows[len(windows)-1]
	best := pattern.RowStripeFF
	bestFirst := 0.0 // 0 = never failed
	bestTieBER := -1.0
	for _, k := range pattern.All() {
		if err := t.interrupted(); err != nil {
			return best, err
		}
		first := 0.0
		for _, win := range windows {
			ber, err := t.measureRetentionBER(row, k, win)
			if err != nil {
				return best, err
			}
			if ber > 0 {
				first = win
				break
			}
		}
		better := false
		switch {
		case first == 0:
			// Never failed: only wins if nothing has failed yet and the
			// tie-break BER at the longest window is larger.
			if bestFirst == 0 {
				ber, err := t.measureRetentionBER(row, k, longest)
				if err != nil {
					return best, err
				}
				if ber > bestTieBER {
					bestTieBER = ber
					better = true
				}
			}
		case bestFirst == 0 || first < bestFirst:
			better = true
			bestTieBER = -1
		case first == bestFirst:
			ber, err := t.measureRetentionBER(row, k, longest)
			if err != nil {
				return best, err
			}
			if ber > bestTieBER {
				bestTieBER = ber
				better = true
			}
		}
		if better {
			best, bestFirst = k, first
		}
	}
	return best, nil
}

// RetentionFirstFailMS binary-searches the smallest refresh window (in
// milliseconds, within [loMS, hiMS]) at which the row exhibits a retention
// bit flip, to a resolution of resMS. The paper tests only power-of-two
// windows and leaves finer granularity to future work (footnote 14); this
// search enables refresh rates between 1x and 2x. It returns 0 if the row
// never fails even at hiMS.
func (t *Tester) RetentionFirstFailMS(row int, pat pattern.Kind, loMS, hiMS, resMS float64) (float64, error) {
	if !pat.Valid() {
		var err error
		pat, err = t.SelectRetentionWCDP(row)
		if err != nil {
			return 0, err
		}
	}
	failsAt := func(win float64) (bool, error) {
		if err := t.interrupted(); err != nil {
			return false, err
		}
		for i := 0; i < t.cfg.Iterations; i++ {
			ber, err := t.measureRetentionBER(row, pat, win)
			if err != nil {
				return false, err
			}
			if ber > 0 {
				return true, nil
			}
		}
		return false, nil
	}
	hiFails, err := failsAt(hiMS)
	if err != nil {
		return 0, err
	}
	if !hiFails {
		return 0, nil
	}
	if loFails, err := failsAt(loMS); err != nil {
		return 0, err
	} else if loFails {
		return loMS, nil
	}
	lo, hi := loMS, hiMS
	for hi-lo > resMS {
		mid := (lo + hi) / 2
		fails, err := failsAt(mid)
		if err != nil {
			return 0, err
		}
		if fails {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}
