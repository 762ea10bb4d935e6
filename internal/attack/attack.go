// Package attack implements a library of RowHammer attack shapes against the
// simulated module: single-sided, double-sided (the paper's methodology
// choice), TRRespass-style many-sided budget splitting, and decoy flooding
// aimed at diluting sampling-based in-DRAM trackers. It powers the
// attack/defense extension experiments beyond the paper's own evaluation.
package attack

import (
	"errors"
	"fmt"

	"github.com/dramstudy/rhvpp/internal/softmc"
)

// Target names a victim row and its double-sided aggressor pair.
type Target struct {
	Bank   int
	Victim int
	AggLo  int
	AggHi  int
}

// ErrBadTarget is returned for incomplete targets.
var ErrBadTarget = errors.New("attack: invalid target")

// Pattern is one attack shape. Run spends up to budget total activations
// attacking the target. If refEvery > 0, one REF command is issued after
// every refEvery activations, letting any in-DRAM TRR engine defend; the
// paper's methodology starves TRR with refEvery = 0.
type Pattern interface {
	Name() string
	Run(ctrl *softmc.Controller, tgt Target, budget, refEvery int) error
}

// chunks iterates an activation budget in REF-aligned chunks.
func chunks(budget, refEvery int, emit func(n int) error, ref func() error) error {
	if refEvery <= 0 {
		return emit(budget)
	}
	for budget > 0 {
		n := refEvery
		if n > budget {
			n = budget
		}
		if err := emit(n); err != nil {
			return err
		}
		if err := ref(); err != nil {
			return err
		}
		budget -= n
	}
	return nil
}

// SingleSided hammers only the lower aggressor.
type SingleSided struct{}

// Name implements Pattern.
func (SingleSided) Name() string { return "single-sided" }

// Run implements Pattern.
func (SingleSided) Run(ctrl *softmc.Controller, tgt Target, budget, refEvery int) error {
	return chunks(budget, refEvery,
		func(n int) error { return ctrl.Hammer(tgt.Bank, tgt.AggLo, n) },
		ctrl.Refresh)
}

// DoubleSided alternates the two adjacent aggressors — the most effective
// shape against undefended DRAM (§4.2).
type DoubleSided struct{}

// Name implements Pattern.
func (DoubleSided) Name() string { return "double-sided" }

// Run implements Pattern.
func (DoubleSided) Run(ctrl *softmc.Controller, tgt Target, budget, refEvery int) error {
	return chunks(budget, refEvery,
		func(n int) error { return ctrl.HammerDoubleSided(tgt.Bank, tgt.AggLo, tgt.AggHi, n/2) },
		ctrl.Refresh)
}

// ManySided splits the budget across Pairs aggressor pairs spread through
// the bank (TRRespass style): each victim sees less disturbance, but
// counter-starved trackers may miss all of them.
type ManySided struct {
	Pairs  int
	Stride int
}

// Name implements Pattern.
func (m ManySided) Name() string { return fmt.Sprintf("many-sided-%d", m.Pairs) }

// Run implements Pattern.
func (m ManySided) Run(ctrl *softmc.Controller, tgt Target, budget, refEvery int) error {
	pairs := m.Pairs
	if pairs < 1 {
		pairs = 4
	}
	stride := m.Stride
	if stride < 4 {
		stride = 32
	}
	rowsPerBank := ctrl.Module().Geometry().RowsPerBank
	return chunks(budget, refEvery,
		func(n int) error {
			// Scale this chunk's share across all pairs.
			share := n / pairs
			if share < 2 {
				share = 2
			}
			for p := 0; p < pairs; p++ {
				lo, hi := tgt.AggLo+p*stride, tgt.AggHi+p*stride
				if hi >= rowsPerBank {
					break
				}
				if err := ctrl.HammerDoubleSided(tgt.Bank, lo, hi, share/2); err != nil {
					return err
				}
			}
			return nil
		},
		ctrl.Refresh)
}

// DecoyFlood hammers the real pair with most of the budget while spraying
// the remainder over many decoy rows, diluting sampling-based TRR trackers
// so their REFs protect the wrong victims.
type DecoyFlood struct {
	// DecoyFraction of the budget goes to decoys (default 0.3).
	DecoyFraction float64
	// Decoys is the number of decoy rows (default 24).
	Decoys int
}

// Name implements Pattern.
func (d DecoyFlood) Name() string { return "decoy-flood" }

// Run implements Pattern.
func (d DecoyFlood) Run(ctrl *softmc.Controller, tgt Target, budget, refEvery int) error {
	frac := d.DecoyFraction
	if frac <= 0 || frac >= 1 {
		frac = 0.3
	}
	decoys := d.Decoys
	if decoys < 1 {
		decoys = 24
	}
	rowsPerBank := ctrl.Module().Geometry().RowsPerBank
	return chunks(budget, refEvery,
		func(n int) error {
			real := int(float64(n) * (1 - frac))
			if err := ctrl.HammerDoubleSided(tgt.Bank, tgt.AggLo, tgt.AggHi, real/2); err != nil {
				return err
			}
			perDecoy := (n - real) / decoys
			if perDecoy < 1 {
				perDecoy = 1
			}
			for i := 0; i < decoys; i++ {
				row := (tgt.AggHi + 64 + i*7) % rowsPerBank
				if err := ctrl.Hammer(tgt.Bank, row, perDecoy); err != nil {
					return err
				}
			}
			return nil
		},
		ctrl.Refresh)
}

// Result reports one attack execution.
type Result struct {
	Pattern string
	Flips   int
	BER     float64
}

// Execute initializes the victim (0xFF) and aggressors (0x00), runs the
// attack, reads the victim back, and reports the damage.
func Execute(ctrl *softmc.Controller, tgt Target, pat Pattern, budget, refEvery int) (Result, error) {
	if tgt.Victim == tgt.AggLo || tgt.Victim == tgt.AggHi {
		return Result{}, ErrBadTarget
	}
	const fill = 0xFF
	if err := ctrl.InitializeRow(tgt.Bank, tgt.Victim, fill); err != nil {
		return Result{}, err
	}
	for _, agg := range []int{tgt.AggLo, tgt.AggHi} {
		if err := ctrl.InitializeRow(tgt.Bank, agg, 0x00); err != nil {
			return Result{}, err
		}
	}
	if err := pat.Run(ctrl, tgt, budget, refEvery); err != nil {
		return Result{}, err
	}
	flips, err := ctrl.ReadRowSafeMismatch(tgt.Bank, tgt.Victim, fill)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Pattern: pat.Name(),
		Flips:   flips,
		BER:     float64(flips) / float64(ctrl.Module().Geometry().RowBytes*8),
	}, nil
}
