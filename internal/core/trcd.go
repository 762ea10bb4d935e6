package core

import (
	"fmt"

	"github.com/dramstudy/rhvpp/internal/pattern"
)

// TRCDResult is the per-row outcome of the Alg. 2 latency sweep.
type TRCDResult struct {
	Row  int
	WCDP pattern.Kind
	// MinReliableNS is the smallest activation latency (on the 1.5 ns
	// command grid) at which no bit flips occur anywhere in the row.
	MinReliableNS float64
}

// rowFaultyAtTRCD checks every column of the row at the currently programmed
// tRCD, re-initializing the row before each column access as Alg. 2 does:
// one controller probe per iteration.
func (t *Tester) rowFaultyAtTRCD(row int, pat pattern.Kind, iters int) (bool, error) {
	for i := 0; i < iters; i++ {
		if err := t.interrupted(); err != nil {
			return false, err
		}
		col, err := t.ctrl.ProbeRowTRCD(t.cfg.Bank, row, pat.Byte())
		if err != nil || col >= 0 {
			return col >= 0, err
		}
	}
	return false, nil
}

// TRCDMinSearch implements the Alg. 2 sweep: starting from the nominal
// 13.5 ns, the latency moves down while reliable and up while faulty, in
// 1.5 ns steps, until both a faulty and a reliable point have been seen; the
// smallest reliable latency is reported.
func (t *Tester) TRCDMinSearch(row int, pat pattern.Kind, iters int) (float64, error) {
	defer t.ctrl.ResetTiming()
	trcd := t.cfg.TRCDStartNS
	foundFaulty, foundReliable := false, false
	minReliable := 0.0
	for !foundFaulty || !foundReliable {
		if err := t.interrupted(); err != nil {
			return 0, err
		}
		if trcd > t.cfg.TRCDMaxNS {
			return 0, fmt.Errorf("row %d: tRCD sweep exceeded %.1fns: %w", row, t.cfg.TRCDMaxNS, ErrSweepDiverged)
		}
		if trcd < t.cfg.TRCDStepNS {
			// The row is reliable even at the lowest programmable latency;
			// treat the floor as the faulty boundary.
			foundFaulty = true
			trcd = t.cfg.TRCDStepNS
			continue
		}
		if err := t.ctrl.SetTRCD(trcd); err != nil {
			return 0, err
		}
		faulty, err := t.rowFaultyAtTRCD(row, pat, iters)
		if err != nil {
			return 0, err
		}
		if faulty {
			trcd += t.cfg.TRCDStepNS
			foundFaulty = true
		} else {
			minReliable = trcd
			trcd -= t.cfg.TRCDStepNS
			foundReliable = true
		}
	}
	return minReliable, nil
}

// SelectTRCDWCDP implements the §4.3 pattern choice: the pattern with the
// largest observed tRCDmin.
func (t *Tester) SelectTRCDWCDP(row int) (pattern.Kind, error) {
	best := pattern.RowStripeFF
	worstLatency := -1.0
	for _, k := range pattern.All() {
		min, err := t.TRCDMinSearch(row, k, t.cfg.WCDPIterations)
		if err != nil {
			return best, err
		}
		if min > worstLatency {
			best, worstLatency = k, min
		}
	}
	return best, nil
}

// CharacterizeRowTRCD runs the full Alg. 2 flow for one row.
func (t *Tester) CharacterizeRowTRCD(row int, wcdp pattern.Kind) (TRCDResult, error) {
	var err error
	if !wcdp.Valid() {
		wcdp, err = t.SelectTRCDWCDP(row)
		if err != nil {
			return TRCDResult{}, err
		}
	}
	min, err := t.TRCDMinSearch(row, wcdp, t.cfg.Iterations)
	if err != nil {
		return TRCDResult{}, err
	}
	return TRCDResult{Row: row, WCDP: wcdp, MinReliableNS: min}, nil
}
