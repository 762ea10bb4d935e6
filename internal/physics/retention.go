package physics

import (
	"math"

	"github.com/dramstudy/rhvpp/internal/rng"
)

// Retention-model constants.
const (
	// retentionFloorMS is the effective-time floor of the bulk retention
	// distribution: manufacturers screen and repair cells retaining less
	// than this at worst-case conditions, which is why no bulk flips occur
	// at or below the nominal 64 ms refresh window at any tested VPP (§4.4,
	// the Fig. 10a x-axis starts at 64 ms; the only 64/128 ms failures come
	// from the engineered weak-cell tiers of Fig. 11).
	retentionFloorMS = 350
	// retentionTempRefC is the die temperature the retention calibration
	// anchors are defined at (the paper tests retention at 80 °C).
	retentionTempRefC = 80.0
	// weakTier64MS and weakTier128MS are the failing refresh windows of the
	// engineered weak-cell tiers behind the Fig. 11 analysis.
	weakTier64MS  = 64
	weakTier128MS = 128
)

// retentionAnchor holds per-manufacturer calibration anchors read off
// Fig. 10: average retention BER at tREFW = 4 s and 16 s under nominal VPP,
// and at 4 s under VPP = 1.5 V (all at 80 °C).
type retentionAnchor struct {
	ber4sNom  float64
	ber16sNom float64
	ber4sLow  float64
}

func retentionAnchorFor(m Manufacturer) retentionAnchor {
	switch m {
	case MfrA:
		return retentionAnchor{ber4sNom: 0.003, ber16sNom: 0.050, ber4sLow: 0.008}
	case MfrB:
		return retentionAnchor{ber4sNom: 0.002, ber16sNom: 0.020, ber4sLow: 0.005}
	default: // MfrC
		return retentionAnchor{ber4sNom: 0.014, ber16sNom: 0.080, ber4sLow: 0.025}
	}
}

// retentionModel is the calibrated per-module retention behavior: a
// floor-truncated log-normal distribution of cell retention times whose
// scale shrinks as the restore margin shrinks with VPP.
type retentionModel struct {
	mu     float64 // log-time location of the cell retention distribution (ms)
	sigma  float64 // log-time spread
	kappa  float64 // margin-scaling exponent: tau scales with (margin ratio)^kappa
	floorF float64 // CDF mass below the screening floor (precomputed)
	vppMin float64
}

// weakCell is one engineered marginal cell behind the Fig. 11 word-level
// analysis: it fails at its tier's refresh window when operated at VPPmin
// (and proportionally at other voltages) but never below the preceding
// power-of-two window.
type weakCell struct {
	pos    int32   // bit position within the row
	tierMS float64 // retention time at VPPmin, in (tier/2, tier]
}

// calibrateRetention solves the per-module retention parameters from the
// manufacturer anchors plus a small module-to-module spread.
func calibrateRetention(prof ModuleProfile, s *rng.Stream) retentionModel {
	a := retentionAnchorFor(prof.Mfr)
	mu, sigma, ok := SolveLogNormal(4000, a.ber4sNom, 16000, a.ber16sNom)
	if !ok {
		mu, sigma = 12, 1.5
	}
	// Solve the margin-scaling exponent from the 1.5 V anchor:
	// F(4000 / rho(1.5V)) = ber4sLow.
	z3 := PhiInv(a.ber4sLow)
	lnRho := math.Log(4000) - mu - sigma*z3
	marginRatio := RestoreMargin(1.5) / RestoreMargin(VPPNominal)
	kappa := 0.6
	if marginRatio > 0 && marginRatio < 1 && lnRho < 0 {
		kappa = lnRho / math.Log(marginRatio)
	}
	// Module-to-module spread on the distribution location.
	mu += 0.08 * s.NormFloat64()
	m := retentionModel{mu: mu, sigma: sigma, kappa: kappa, vppMin: prof.VPPMin}
	m.floorF = Phi((math.Log(retentionFloorMS) - mu) / sigma)
	return m
}

// rho returns the retention-time scale factor at voltage v relative to
// nominal VPP (1 at nominal, <1 at reduced VPP as the restore margin
// shrinks). Below the restore cutoff the margin collapses; rho is clamped to
// a small positive value so the CDF stays defined.
func (r retentionModel) rho(v float64) float64 {
	ratio := RestoreMargin(v) / RestoreMargin(VPPNominal)
	if ratio <= 0.01 {
		ratio = 0.01
	}
	if ratio > 1 {
		ratio = 1
	}
	return math.Pow(ratio, r.kappa)
}

// bulkProb returns the probability that a bulk (non-weak) cell has failed
// after elapsedMS at voltage v, temperature tempC, with the row's retention
// multiplier lambda. Leakage doubles per 10 °C above the 80 °C reference.
func (r retentionModel) bulkProb(elapsedMS, v, tempC, lambda float64) float64 {
	if elapsedMS <= 0 {
		return 0
	}
	accel := math.Pow(2, (tempC-retentionTempRefC)/10)
	tEff := elapsedMS * accel / (r.rho(v) * lambda)
	f := Phi((math.Log(tEff) - r.mu) / r.sigma)
	if f <= r.floorF {
		return 0
	}
	return (f - r.floorF) / (1 - r.floorF)
}

// weakCellSpec describes a tier of engineered weak cells for one
// manufacturer: the fraction of rows carrying them and the number of
// distinct 64-bit words affected per such row.
type weakCellSpec struct {
	tierMS   float64
	rowFrac  float64
	words    int
	needFail bool // tier only present in modules flagged RetentionFails64ms
}

// weakSpecsFor returns the Fig. 11 weak-cell population for a manufacturer:
//
//	64 ms tier (only modules failing at the nominal window): Mfr B rows
//	carry four single-flip words in 15.5% of rows plus 116 words in 0.01%;
//	Mfr C rows carry one word in 0.2% of rows.
//	128 ms tier (all modules): 0.1% / 4.7% / 0.2% of rows with 1 / 2 / 1
//	erroneous words for Mfrs A / B / C.
func weakSpecsFor(m Manufacturer) []weakCellSpec {
	switch m {
	case MfrA:
		return []weakCellSpec{
			{tierMS: weakTier128MS, rowFrac: 0.001, words: 1},
		}
	case MfrB:
		return []weakCellSpec{
			{tierMS: weakTier64MS, rowFrac: 0.155, words: 4, needFail: true},
			{tierMS: weakTier64MS, rowFrac: 0.0001, words: 116, needFail: true},
			{tierMS: weakTier128MS, rowFrac: 0.047, words: 2},
		}
	default: // MfrC
		return []weakCellSpec{
			{tierMS: weakTier64MS, rowFrac: 0.002, words: 1, needFail: true},
			{tierMS: weakTier128MS, rowFrac: 0.002, words: 1},
		}
	}
}

// sampleWeakCells draws the weak cells of one row. At most one weak cell is
// placed per 64-bit word, which is what makes all retention errors at the
// smallest failing window SECDED-correctable (Obsv. 14).
func (r retentionModel) sampleWeakCells(s *rng.Stream, geom Geometry, prof ModuleProfile) []weakCell {
	var cells []weakCell
	words := geom.RowBytes / 8
	if words < 1 {
		return nil
	}
	usedWords := map[int]bool{}
	for _, spec := range weakSpecsFor(prof.Mfr) {
		if spec.needFail && !prof.RetentionFails64ms {
			continue
		}
		if !s.Bool(spec.rowFrac) {
			continue
		}
		n := spec.words
		if n > words-len(usedWords) {
			n = words - len(usedWords)
		}
		for i := 0; i < n; i++ {
			w := s.Intn(words)
			for usedWords[w] {
				w = (w + 1) % words
			}
			usedWords[w] = true
			bit := s.Intn(64)
			// Retention time at VPPmin in (tier/2, tier]: fails at the
			// tier's window but not at the preceding power of two.
			tier := spec.tierMS * (0.55 + 0.43*s.Float64())
			cells = append(cells, weakCell{pos: int32(w*64 + bit), tierMS: tier})
		}
	}
	return cells
}

// weakVoltageExponent sharpens the weak cells' voltage response: they are
// marginal precisely because of the restoration mechanism, so their retention
// time collapses much faster than the bulk population as VPP approaches
// VPPmin. This keeps modules clean at the nominal window under nominal VPP
// (Obsv. 13) while producing the Fig. 11 failures at VPPmin.
const weakVoltageExponent = 3

// weakFailed reports whether a weak cell has failed after elapsedMS at
// voltage v and temperature tempC. The cell's retention time is tierMS at
// the module's VPPmin and recovers steeply at higher voltages.
func (r retentionModel) weakFailed(c weakCell, elapsedMS, v, tempC float64) bool {
	accel := math.Pow(2, (tempC-retentionTempRefC)/10)
	tau := c.tierMS * math.Pow(r.rho(v)/r.rho(r.vppMin), weakVoltageExponent)
	return elapsedMS*accel >= tau
}

// RetentionFlipPositions returns the bit positions in a row that have
// suffered retention failures after elapsedMS of unrefreshed time at
// voltage vpp and die temperature tempC. iter selects the measurement-noise
// realization. Positions are unique and unordered.
func (m *DeviceModel) RetentionFlipPositions(bank, rowAddr int, vpp, elapsedMS, tempC float64, iter int) []int32 {
	if elapsedMS <= 0 || vpp < m.prof.VPPMin-1e-9 {
		return nil
	}
	r := m.RowRetention(bank, rowAddr, vpp, tempC, iter)
	count := r.BulkCount(elapsedMS)
	var out []int32
	if count > 0 {
		out = append(out, r.BulkPositions(count)...)
	}
	for i := 0; i < r.WeakCells(); i++ {
		if r.WeakFlipped(i, elapsedMS, count) {
			out = append(out, r.WeakPos(i))
		}
	}
	return out
}

// RowRetention is one row's retention state for one measurement iteration:
// the row parameters and measurement noise resolved once, then queried at
// any elapsed time. A whole-row read uses it to judge each column at its own
// read time without re-deriving the row; RetentionFlipPositions is the
// single-time query built on it.
type RowRetention struct {
	m          *DeviceModel
	rp         *rowParams
	bank, row  int
	vpp, tempC float64
	noise      float64 // multiplicative measurement noise on elapsed time
}

// RowRetention resolves a row's retention state at voltage vpp and die
// temperature tempC for measurement iteration iter.
func (m *DeviceModel) RowRetention(bank, rowAddr int, vpp, tempC float64, iter int) RowRetention {
	return RowRetention{
		m: m, rp: m.row(bank, rowAddr), bank: bank, row: rowAddr, vpp: vpp, tempC: tempC,
		noise: math.Exp(m.root.Derive("rnoise", bank, rowAddr, iter).Normal(0, 0.05)),
	}
}

// inactive reports whether no cell can have failed after elapsedMS.
func (r *RowRetention) inactive(elapsedMS float64) bool {
	return elapsedMS <= 0 || r.vpp < r.m.prof.VPPMin-1e-9
}

// BulkCount returns the number of bulk (non-weak) cells failed after
// elapsedMS of unrefreshed time.
func (r *RowRetention) BulkCount(elapsedMS float64) int {
	if r.inactive(elapsedMS) {
		return 0
	}
	n := r.m.geom.RowBits()
	p := r.m.retention.bulkProb(elapsedMS*r.noise, r.vpp, r.tempC, r.rp.retLambda)
	count := int(p*float64(n) + r.rp.flipFrac)
	if count > n {
		count = n
	}
	return count
}

// BulkPositions returns the bit positions of the first count bulk failures.
// The order is weakest first, so a longer wait fails a superset.
func (r *RowRetention) BulkPositions(count int) []int32 {
	if count <= 0 {
		return nil
	}
	r.m.retentionOrder(r.rp, r.bank, r.row)
	return r.rp.retPerm[:count]
}

// WeakCells returns the number of engineered weak cells in the row.
func (r *RowRetention) WeakCells() int { return len(r.rp.weak) }

// WeakPos returns the bit position of weak cell i.
func (r *RowRetention) WeakPos(i int) int32 { return r.rp.weak[i].pos }

// WeakFlipped reports whether weak cell i reads flipped after elapsedMS
// when bulkCount bulk cells have failed: it has failed and is not already
// one of those bulk failures (a cell flips once, never twice).
func (r *RowRetention) WeakFlipped(i int, elapsedMS float64, bulkCount int) bool {
	if r.inactive(elapsedMS) || !r.m.retention.weakFailed(r.rp.weak[i], elapsedMS, r.vpp, r.tempC) {
		return false
	}
	if bulkCount <= 0 {
		return true
	}
	r.m.retentionOrder(r.rp, r.bank, r.row)
	return int(r.rp.weakRank[i]) >= bulkCount
}

// retentionOrder samples, once per row, the weakest-first bulk failure order
// and each weak cell's rank in it.
func (m *DeviceModel) retentionOrder(rp *rowParams, bank, rowAddr int) {
	rp.retPermOnce.Do(func() {
		rp.retPerm = m.cellPermutation("retperm", bank, rowAddr)
		if len(rp.weak) == 0 {
			return
		}
		weakBits := make([]uint64, (len(rp.retPerm)+63)/64)
		for _, c := range rp.weak {
			weakBits[c.pos/64] |= 1 << uint(c.pos%64)
		}
		rp.weakRank = make([]int32, len(rp.weak))
		for rank, pos := range rp.retPerm {
			if weakBits[pos/64]&(1<<uint(pos%64)) == 0 {
				continue
			}
			for i, c := range rp.weak {
				if c.pos == pos {
					rp.weakRank[i] = int32(rank)
				}
			}
		}
	})
}

// GroundTruthWeakCells returns the number of engineered weak cells in a row
// (test hook; characterization code must measure via retention sweeps).
func (m *DeviceModel) GroundTruthWeakCells(bank, rowAddr int) int {
	return len(m.row(bank, rowAddr).weak)
}
