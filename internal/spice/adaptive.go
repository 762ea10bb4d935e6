package spice

import (
	"errors"
	"math"
)

// Adaptive stepping: error-controlled coarsening of the transient grid.
//
// The paper's waveforms (Figs. 8a/9a) are active for a few nanoseconds —
// wordline ramp, charge sharing, sense-amplifier latch — and then spend tens
// of nanoseconds in quiescent stretches (the post-latch settle, the
// restoration tail, and for unreliable runs the entire remaining horizon)
// where a 25 ps grid wildly oversamples the dynamics. The adaptive stepper
// integrates those stretches with coarse steps of 2^k base cells, validating
// every coarse step by step-doubling: the step is solved once at the full
// size h and again as two h/2 half-steps, and the difference between the two
// endpoints is the local-truncation-error estimate. A step whose estimate
// exceeds the tolerance (or whose Newton iteration fails to converge) is
// rewound and retried at half the size, down to the base grid.
//
// Three invariants make adaptive results interchangeable with fixed-grid
// results downstream:
//
//   - Every accepted step ends on the base 25 ps grid (coarse sizes are
//     whole multiples of the base step), and reported sample times come from
//     a grid clock that replays the fixed path's repeated dt addition — so a
//     crossing time reported at cell k is bit-identical to the fixed path's
//     time at cell k, and the exact-quantile multisets in internal/stats see
//     the same float keys either way.
//   - A threshold crossing detected at a coarse endpoint is never reported
//     from the coarse step: the measurement loop rewinds the step and
//     re-integrates the stretch cell by cell on the base grid, so crossings
//     are localized with full fixed-grid resolution.
//   - The accepted value of a coarse step is the pair blended onto the
//     base grid's own trajectory (see blendAlpha): the pair measures both
//     the local solution and the leading error term, and the blend keeps
//     the leading error equal to the fixed grid's own discretization bias
//     instead of zero. The golden tests pin the resulting waveforms to the
//     dense fixed-grid reference within AccuracyTolV and the quantized
//     crossings bit-for-bit.
//
// A measurement either steps adaptively with the constants below or
// integrates every cell of the base grid; the probe decides (see Probe).

// Adaptive-stepping constants. The tolerance keeps the accumulated deviation
// from the fixed grid within AccuracyTolV over the paper's horizons, which
// in turn keeps grid-quantized threshold crossings identical to fixed-grid
// crossings across the Fig. 8/9 sweep (pinned by tests).
const (
	// lteTolV is the step-doubling error tolerance (volts): the maximum RMS
	// node-voltage difference between a coarse step and its half-step pair
	// for the step to be accepted.
	lteTolV = 1e-6
	// maxStepPS caps coarse steps at 64 base cells of the 25 ps grid.
	maxStepPS = 1600
	// activityTolV is the quiescence test (volts): coarsening is attempted
	// only after a base step that moved no node by more than this.
	activityTolV = 5e-4
	// AccuracyTolV is the documented accuracy contract of adaptive output:
	// every accepted sample lies within this of the dense fixed-grid
	// reference value at the same grid time (see TestAdaptiveMatchesReference;
	// the measured worst deviation across the sweep is ~1.2e-6 V at the
	// default tolerance, an ~8x margin).
	AccuracyTolV = 1e-5
	// adaptiveCooldown is how many base cells the stepper waits after a
	// fully rejected coarsening attempt before trying again.
	adaptiveCooldown = 16
	// trustedSteps is how many single-solve coarse steps may follow one
	// half-step-validated pair before the cache must be refreshed.
	trustedSteps = 6
	// minCoarse is the smallest coarse step in base cells: a validated pair
	// costs 3 solves, so 2-cell coarse steps would cost more than base
	// stepping.
	minCoarse = 4
)

// StepStats counts one activation's integration work, for the benchmark
// metrics and the step-reduction acceptance tests.
type StepStats struct {
	// Cells is how many base-grid cells the run covered.
	Cells int
	// Solves is how many implicit (Newton-converged) solves were performed,
	// including the half-step pairs and rejected trials. On the fixed grid
	// Solves == Cells.
	Solves int
	// CoarseCells / CoarseSolves cover only the accepted coarse steps: their
	// ratio is the step reduction achieved on the quiescent stretches.
	CoarseCells  int
	CoarseSolves int
	// Rejected counts coarse trials undone by the error estimate, a Newton
	// failure, or a measurement-loop rewind.
	Rejected int
	// NewtonIters is the total Newton iteration count across every solve of
	// the run, including rejected trials: the work the extrapolating
	// predictor is trying to shrink (see TestScaledPredictorIterations).
	NewtonIters int
}

// adaptiveScratch is the stepper's reusable allocation set, owned by the
// Transient so Workspace reuse stays allocation-free.
type adaptiveScratch struct {
	prev       *engineState
	vFull      []float64 // full-size trial endpoint, for the LTE comparison
	vOld       []float64 // pre-step voltages, for the quiescence test
	errC       []float64 // cached per-node (full - half) error term of the last pair
	end1, end2 []float64 // last two accepted coarse endpoints at the same size
}

// adaptiveStepper drives a Transient along the base grid with
// error-controlled coarse steps. It is constructed per measurement on the
// stack; all heap state lives in the Transient's adaptiveScratch.
type adaptiveStepper struct {
	tr      *Transient
	base    float64 // base step (seconds); every accepted step is a multiple
	horizon float64 // integration end time (seconds)
	maxMult int     // coarse-step cap in base cells (power of two; 1 = full grid)

	mult      int // next coarse size to attempt (1 = base stepping)
	cool      int // base cells to wait before re-attempting coarsening
	rejStreak int // consecutive fully rejected attempts (backoff doubling)
	forced    int // cells left of a rewound stretch that must stay on base

	// Retry gate calibrated from the last fully rejected attempt: for the
	// relaxation modes that dominate quiescent stretches the step-doubling
	// error scales linearly with the per-cell delta, so the delta at which
	// the smallest coarse size will fit the tolerance is predictable from
	// the rejection's measured error.
	rejPending bool    // a rejection awaits the next base delta to calibrate
	rejLTE     float64 // error measured by the rejected minCoarse attempt
	rejGate    float64 // retry only once the base delta falls below this
	rejGateAge int     // cells the gate stays authoritative (regimes change)

	// Trusted-step state: after a half-step-validated pair, up to
	// trustedSteps coarse steps of the same size run on a single solve,
	// blending with the pair's cached error term under a predictor guard.
	// The cached term decays with the tail dynamics; the decay per step is
	// measured from consecutive pairs and applied geometrically.
	trustLeft  int
	histM      int     // size the endpoint history was recorded at
	histN      int     // valid endpoint-history entries (0..2)
	pairLTE    float64 // error estimate of the last accepted pair
	pairAge    int     // accepted steps since that pair
	decayRate  float64 // measured per-step decay of the error term
	decayAccum float64 // accumulated decay factor for the cached term
	alpha      float64 // blend coefficient of the last pair (see blendAlpha)

	// tGrid is the fixed-path clock: advanced by one repeated dt addition
	// per covered base cell, exactly as the fixed loop accumulates time.
	tGrid float64

	// Rewind state for the last accepted coarse step.
	prevValid bool
	prevCells int
	prevTGrid float64

	stats StepStats
}

// newAdaptiveStepper prepares the stepper (and the Transient's scratch) for
// one activation up to horizon seconds. The engine must be at t=0 on its
// base grid (freshly constructed or Reset). With adaptive false, or on the
// dense reference engine (the oracle adaptive runs are pinned against), the
// stepper never coarsens and covers the horizon one base cell per solve.
func (tr *Transient) newAdaptiveStepper(horizon float64, adaptive bool) adaptiveStepper {
	if tr.ad == nil {
		tr.ad = &adaptiveScratch{
			prev:  tr.newState(),
			vFull: make([]float64, tr.nv),
			vOld:  make([]float64, tr.nv),
			errC:  make([]float64, tr.nv),
			end1:  make([]float64, tr.nv),
			end2:  make([]float64, tr.nv),
		}
	}
	maxMult := 1
	if adaptive && tr.red != nil {
		basePS := tr.baseDt / 1e-12
		for float64(2*maxMult)*basePS <= maxStepPS {
			maxMult *= 2
		}
	}
	return adaptiveStepper{
		tr:      tr,
		base:    tr.baseDt,
		horizon: horizon,
		maxMult: maxMult,
		mult:    1,
	}
}

// step advances by one accepted step and returns how many base cells it
// covered. Errors are the engine's own (ErrNoConverge at base resolution,
// or a genuine solve failure).
func (st *adaptiveStepper) step() (int, error) {
	if st.forced > 0 {
		st.forced--
		return 1, st.baseStep()
	}
	if st.mult > 1 {
		return st.coarseStep()
	}
	if err := st.baseStep(); err != nil {
		return 0, err
	}
	if st.maxMult < minCoarse {
		return 1, nil // no legal coarse size: the full grid
	}
	// Attempt coarsening once the dynamics are quiescent: no node moved by
	// more than the activity threshold over the last base cell.
	delta := 0.0
	for i, v := range st.tr.v {
		if d := abs(v - st.tr.ad.vOld[i]); d > delta {
			delta = d
		}
	}
	if st.rejPending {
		st.rejPending = false
		if st.rejLTE > 0 {
			// The linear LTE-vs-delta relation only holds within one
			// dynamics regime, so the calibrated gate expires after a
			// while instead of suppressing retries forever.
			st.rejGate = delta * lteTolV / st.rejLTE * 0.8
			st.rejGateAge = 8 * adaptiveCooldown
		}
	}
	if st.rejGate > 0 {
		if st.rejGateAge--; st.rejGateAge <= 0 {
			st.rejGate = 0
		}
	}
	if st.cool > 0 {
		st.cool--
		return 1, nil
	}
	if delta < activityTolV && (st.rejGate == 0 || delta < st.rejGate) {
		st.mult = minCoarse
	}
	return 1, nil
}

// baseStep advances one cell on the base grid, keeping the engine clock on
// the fixed path's repeated-addition times so source waveforms and reported
// crossings are evaluated at bit-identical instants.
func (st *adaptiveStepper) baseStep() error {
	tr := st.tr
	tr.setDt(st.base)
	tr.t = st.tGrid
	copy(tr.ad.vOld, tr.v)
	if err := tr.Step(); err != nil {
		return err
	}
	st.stats.Cells++
	st.stats.Solves++
	st.tGrid = tr.t // tGrid + base, in the fixed path's own float arithmetic
	st.prevValid = false
	// A base cell breaks the equal-spacing endpoint history the trusted
	// coarse steps predict from.
	st.histN, st.trustLeft = 0, 0
	return nil
}

// coarseStep attempts a step of st.mult base cells, halving on an error
// estimate over tolerance or a Newton failure, and falls back to a base
// step (with a cooldown) when every coarse size is rejected.
//
// Every attempt starts with one full-size solve. When the trusted-step
// window is open — a half-step-validated pair at this size happened
// recently and the endpoint history agrees with a linear prediction — that
// single solve is accepted directly, blended with the pair's cached error
// term: 1 solve per m cells. Otherwise the half-step pair runs too and the
// step is accepted only if the full-vs-half difference fits the tolerance:
// 3 solves per m cells, refreshing the cache.
func (st *adaptiveStepper) coarseStep() (int, error) {
	tr := st.tr
	m := st.mult
	// Never overshoot the horizon: coarsening past it would fabricate cells
	// the fixed loop does not integrate.
	for m >= minCoarse && st.tGrid+float64(m)*st.base >= st.horizon+st.base/2 {
		m /= 2
	}
	// The retry gate may only be calibrated from an LTE this episode
	// actually measured — not a stale value from an earlier regime (a
	// Newton-failure episode, or the near-horizon clamp, measures none).
	st.rejLTE = 0
	for m >= minCoarse {
		tr.save(tr.ad.prev)
		h := float64(m) * st.base

		// Full-size solve (both the trusted path's result and the pair
		// path's error-estimate operand).
		tr.setDt(h)
		tr.t = st.tGrid
		if err := tr.Step(); err != nil {
			if !errors.Is(err, ErrNoConverge) {
				return 0, err
			}
			tr.load(tr.ad.prev)
			st.stats.Rejected++
			m /= 2
			continue
		}
		st.stats.Solves++
		copy(tr.ad.vFull, tr.v)

		if st.trustedAccept(m) {
			st.accept(m, 1)
			return m, nil
		}

		// Half-step pair from the same starting state.
		tr.load(tr.ad.prev)
		tr.setDt(h / 2)
		tr.t = st.tGrid
		err := tr.Step()
		if err == nil {
			st.stats.Solves++
			if err = tr.Step(); err == nil {
				st.stats.Solves++
			}
		}
		if err != nil {
			if !errors.Is(err, ErrNoConverge) {
				return 0, err
			}
			tr.load(tr.ad.prev)
			st.stats.Rejected++
			m /= 2
			continue
		}

		// Local truncation error: full-step vs half-step endpoint, as an RMS
		// norm over the nodes. The historical max norm let one stiff node —
		// in this netlist the sense-amp internal node during rail ramps —
		// veto a coarse step whose error everywhere else was negligible; the
		// per-node RMS keeps single-node spikes from rejecting whole trials
		// while still bounding every node's error within sqrt(nv)*tol of the
		// blend's bias model (TestPerNodeLTEReducesRejections measures the
		// rejection drop, TestAdaptiveMatchesReference pins the accuracy).
		sum := 0.0
		for i, v := range tr.v {
			d := v - tr.ad.vFull[i]
			sum += d * d
		}
		lte := math.Sqrt(sum / float64(len(tr.v)))
		if lte > lteTolV {
			tr.load(tr.ad.prev)
			st.stats.Rejected++
			if m == minCoarse {
				st.rejLTE = lte
			}
			m /= 2
			continue
		}

		// Accept the pair, extrapolated onto the BASE GRID's trajectory.
		// Backward Euler's error is first order: x(h) = x* + C*h. The pair
		// gives both x* (Richardson: 2*half - full) and the error constant
		// (C*h = 2*(full - half)) — but the accuracy oracle downstream is
		// the fixed 25 ps integration, which itself runs ahead of x* by its
		// own C*dt. Plain half-step acceptance lags that oracle by
		// C*(h/2 - dt) and full Richardson leads it by C*dt; either drift,
		// accumulated over a quiescent tail, is enough to shift a slow
		// restoration crossing by one grid cell. Blending the pair so the
		// leading error equals the base grid's own — x* + (C*h)/m — keeps
		// the adaptive trajectory on the fixed grid's discretization bias,
		// and grid-quantized crossings identical to fixed-grid integration
		// (pinned by TestAdaptiveCrossingsMatchFixedGrid). At m=2 the blend
		// reduces to the half-step pair, which IS base-grid stepping.
		// Calibrate the error term's decay from consecutive same-size
		// pairs: in a relaxing stretch the error constant shrinks
		// geometrically with the state's own relaxation, and the measured
		// per-span rate both ages the trusted-step cache and sharpens the
		// blend coefficient below.
		if st.histM == m && st.pairLTE > 0 && st.pairAge > 0 && lte > 0 {
			st.decayRate = math.Pow(lte/st.pairLTE, 1/float64(st.pairAge))
			if st.decayRate > 1 {
				st.decayRate = 1
			} else if st.decayRate < 0.5 {
				st.decayRate = 0.5
			}
		} else {
			st.decayRate = 1
		}
		st.pairLTE, st.pairAge, st.decayAccum = lte, 0, 1
		st.alpha = blendAlpha(m, st.decayRate)
		if r := tr.red; r != nil {
			for i, n := range r.nodes {
				vh, vf := tr.v[n-1], tr.ad.vFull[n-1]
				tr.ad.errC[n-1] = vh - vf // -C*h/2 per node, cached for trusted steps
				ext := vh + st.alpha*(vh-vf)
				tr.v[n-1] = ext
				r.xPrev[i] = ext
			}
		}
		st.trustLeft = trustedSteps
		st.rejStreak = 0
		st.rejGate = 0
		st.accept(m, 3)
		// Doubling the step quadruples the error, so escalate when the
		// observed error leaves the factor-4 margin.
		if lte <= lteTolV/4 && 2*m <= st.maxMult {
			st.mult = 2 * m
		}
		return m, nil
	}
	// Every coarse size was rejected: integrate on the base grid and hold
	// off further attempts for a while — exponentially longer while the
	// dynamics keep rejecting, so active-but-smooth stretches (mid-sweep
	// latch settles) don't bleed wasted large-step solves.
	st.mult = 1
	st.cool = adaptiveCooldown << st.rejStreak
	if st.cool > 64*adaptiveCooldown {
		st.cool = 64 * adaptiveCooldown
	}
	st.rejStreak++
	st.rejPending = true
	st.histN, st.trustLeft = 0, 0
	if err := st.baseStep(); err != nil {
		return 0, err
	}
	return 1, nil
}

// trustedAccept decides whether the freshly solved full-size step can be
// accepted without its half-step validation, and if so applies the cached
// blend. It requires an open trust window at this size, two prior accepted
// endpoints at the same size (so a linear prediction exists), and the
// blended endpoint to agree with that prediction within the tolerance —
// the same smoothness the pair's error estimate would certify.
func (st *adaptiveStepper) trustedAccept(m int) bool {
	tr := st.tr
	r := tr.red
	if r == nil || st.trustLeft <= 0 || st.histM != m || st.histN < 2 {
		return false
	}
	// The pair path accepts half + alpha*(half-full); in terms of the
	// full-size endpoint this step solved, with the cached pair difference
	// D = half - full (aged by the measured per-span decay) standing in
	// for this step's own, that is full + (1+alpha)*D.
	st.decayAccum *= st.decayRate
	f := (1 + st.alpha) * st.decayAccum
	for _, n := range r.nodes {
		ext := tr.v[n-1] + f*tr.ad.errC[n-1]
		// The second difference of equally-spaced endpoints is ~4x the
		// pair's half-vs-full LTE estimate, so a pair-equivalent guard
		// compares it against 4*tol.
		if d := abs(ext - (2*tr.ad.end1[n-1] - tr.ad.end2[n-1])); d > 4*lteTolV {
			return false
		}
	}
	for i, n := range r.nodes {
		ext := tr.v[n-1] + f*tr.ad.errC[n-1]
		tr.v[n-1] = ext
		r.xPrev[i] = ext
	}
	st.trustLeft--
	return true
}

// accept commits an accepted coarse step of m cells that consumed the given
// number of solves: stats, the rewind snapshot, the endpoint history for
// the trusted-step predictor, and the fixed-path grid clock (replayed as
// per-cell additions so later base steps and reported crossing times stay
// on bit-identical instants).
func (st *adaptiveStepper) accept(m, solves int) {
	st.stats.Cells += m
	st.stats.CoarseCells += m
	st.stats.CoarseSolves += solves
	st.prevValid, st.prevCells, st.prevTGrid = true, m, st.tGrid
	st.pairAge++
	for i := 0; i < m; i++ {
		st.tGrid += st.base
	}
	st.tr.t = st.tGrid
	st.mult = m

	if st.histM == m {
		st.ad().end1, st.ad().end2 = st.ad().end2, st.ad().end1
		st.histN++
	} else {
		st.histM, st.histN = m, 1
	}
	copy(st.ad().end1, st.tr.v)
	if st.histN > 2 {
		st.histN = 2
	}
}

// ad is shorthand for the Transient's adaptive scratch.
func (st *adaptiveStepper) ad() *adaptiveScratch { return st.tr.ad }

// blendAlpha returns the coefficient that maps an accepted pair onto the
// base grid's trajectory: ext = half + alpha*(half - full).
//
// Backward Euler applied to a relaxing mode y' = -y/tau multiplies y per
// step of size z*tau by B(z) = 1/(1+z). Over one span of m base cells the
// full step, the half-step pair, and the base grid reach B(x), B(x/2)^2 and
// B(x/m)^m respectively (x = span/tau), so the exact coefficient is
//
//	alpha = (B(x/m)^m - B(x/2)^2) / (B(x/2)^2 - B(x))
//
// whose x->0 limit is the curvature-only value 1-2/m. The mode's x is
// measured: rho, the per-span decay of the pair error term, equals the
// blended trajectory's own decay ~ B(x/m)^m, giving x = m*(rho^(-1/m)-1).
// Using the exact alpha instead of the limit removes the O(x) relative
// model error that otherwise accumulates ~3*tol of drift over a long tail
// — the margin that keeps grid-quantized crossings bit-identical.
func blendAlpha(m int, rho float64) float64 {
	limit := 1 - 2.0/float64(m)
	if rho >= 0.999999 || rho <= 0 {
		return limit
	}
	fm := float64(m)
	x := fm * (math.Pow(rho, -1/fm) - 1)
	bFull := 1 / (1 + x)
	bh := 1 / (1 + x/2)
	bHalf := bh * bh
	bBase := math.Pow(1+x/fm, -fm)
	den := bHalf - bFull
	if den == 0 {
		return limit
	}
	alpha := (bBase - bHalf) / den
	// The one-mode model can misbehave when rho is noisy; stay near the
	// analytic limit.
	if alpha < limit-0.5 || alpha > limit+0.5 {
		return limit
	}
	return alpha
}

// rewind retracts the last accepted coarse step and forces the stepper to
// re-integrate the same cells on the base grid. The measurement loop calls
// it when a threshold crossing lands inside a coarse step, so crossings are
// always localized with fixed-grid resolution.
func (st *adaptiveStepper) rewind() {
	if !st.prevValid {
		return
	}
	tr := st.tr
	tr.load(tr.ad.prev)
	st.tGrid = st.prevTGrid
	tr.t = st.tGrid
	st.forced = st.prevCells
	st.mult = 1
	st.cool = adaptiveCooldown
	st.prevValid = false
	st.histN, st.trustLeft = 0, 0
	// The retracted cells will be re-counted by the forced base steps; the
	// coarse solves stay counted as (wasted) work.
	st.stats.Cells -= st.prevCells
	st.stats.CoarseCells -= st.prevCells
	st.stats.Rejected++
}
