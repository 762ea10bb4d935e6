package physics

import (
	"math"

	"github.com/dramstudy/rhvpp/internal/rng"
)

// tRCD-model constants.
const (
	// trcdGuardbandRetention is the average fraction of the nominal-tRCD
	// guardband that survives at VPPmin for modules that keep working with
	// nominal timings (the paper measures a 21.9 % average guardband
	// reduction, §6.1).
	trcdGuardbandRetention = 1 - 0.219
	// trcdVoltageExponent shapes how activation latency grows as VPP
	// drops; a slightly super-linear response matches both the real-device
	// curves (Fig. 7) and the SPICE distributions (Fig. 8b).
	trcdVoltageExponent = 1.3
	// trcdColumnJitterNS is the scale of per-column variation below the
	// row's worst-case column.
	trcdColumnJitterNS = 0.35
	// trcdIterNoiseNS is the per-measurement latency noise (§4.3 runs each
	// test ten times and keeps the worst case).
	trcdIterNoiseNS = 0.06
)

// trcdModel holds the module-level activation-latency calibration: the
// worst-row tRCD at nominal VPP and the voltage-response coefficient fit so
// the value at VPPmin hits the module's target (either the guardband-
// retention rule for passing modules or the published fix thresholds for the
// five failing ones).
type trcdModel struct {
	baseNS float64 // worst-row minimum reliable tRCD at VPP = 2.5 V
	coeff  float64 // voltage response: t(v) = base * (1 + coeff*(2.5-v)^exp)
	capNS  float64 // hard ceiling (fix threshold + margin headroom)
}

// calibrateTRCD samples the per-module activation-latency model.
func calibrateTRCD(prof ModuleProfile, s *rng.Stream) trcdModel {
	var base, target, capNS float64
	if prof.TRCDFailsNominal {
		// The five failing modules start inside the guardband at nominal
		// VPP and blow past 13.5 ns as VPP drops; the fix thresholds are
		// 24 ns (Mfr A) and 15 ns (Mfr B).
		base = s.Uniform(12.0, 12.9)
		switch prof.Mfr {
		case MfrA:
			target = s.Uniform(20.5, 23.4)
		default:
			target = s.Uniform(14.0, 14.6)
		}
		capNS = prof.TRCDFixNS - 0.15
	} else {
		base = s.Uniform(10.0, 11.8)
		gb := TRCDNominalNS - base
		target = TRCDNominalNS - trcdGuardbandRetention*gb + s.Normal(0, 0.12)
		if target > TRCDNominalNS-0.1 {
			target = TRCDNominalNS - 0.1
		}
		capNS = TRCDNominalNS - 0.05
	}
	dv := VPPNominal - prof.VPPMin
	coeff := 0.0
	if dv > 0.01 && target > base {
		coeff = (target/base - 1) / math.Pow(dv, trcdVoltageExponent)
	}
	return trcdModel{baseNS: base, coeff: coeff, capNS: capNS}
}

// rowBaseNS samples one row's worst-column tRCD at nominal VPP. Rows sit at
// or slightly below the module's worst row, so the maximum across tested
// rows reproduces the module-level curve of Fig. 7.
func (t trcdModel) rowBaseNS(s *rng.Stream) float64 {
	d := s.Exp(1 / 0.4)
	if d > 2.0 {
		d = 2.0
	}
	return t.baseNS - d
}

// rowReqNS evaluates a row's worst-column tRCD requirement at voltage v.
func (t trcdModel) rowReqNS(rowBase, rowScale, v float64) float64 {
	dv := VPPNominal - v
	if dv < 0 {
		dv = 0
	}
	req := rowBase * (1 + t.coeff*rowScale*math.Pow(dv, trcdVoltageExponent))
	// The cap mirrors the paper's finding that the published fix latencies
	// (24 ns / 15 ns) restore reliable operation for every failing module.
	capNS := t.capNS + (rowBase - t.baseNS) // weaker rows stay under the cap
	if req > capNS {
		req = capNS
	}
	return req
}

// maxNormAbs bounds |rng.Stream.NormFloat64()|. The polar method returns
// u·sqrt(-2 ln q / q) with q = u² + v² in (0, 1) and |u| <= sqrt(q), so
// |z| <= sqrt(-2 ln q), largest at the smallest q. u and v are
// 2·Float64() - 1 on Float64's 2⁻⁵³ grid, i.e. multiples of 2⁻⁵², so the
// smallest q is 2⁻¹⁰⁴ and |z| <= sqrt(-2 ln 2⁻¹⁰⁴) = sqrt(208 ln 2) ≈
// 12.0069. The constant rounds that up, which also covers the few ulps of
// rounding in evaluating the formula.
const maxNormAbs = 12.01

// ColumnTRCDReqNS returns the minimum reliable activation-to-read latency of
// one column burst (ns) at voltage vpp for measurement iteration iter.
func (m *DeviceModel) ColumnTRCDReqNS(bank, rowAddr, col int, vpp float64, iter int) float64 {
	r := m.RowTRCD(bank, rowAddr, vpp, iter)
	return r.ColumnReqNS(col)
}

// TRCDFlipPositions returns the bit positions (row-relative) corrupted when
// column col is read trcdNS after activation at voltage vpp. An activation
// that honors the column's requirement returns nil; a violation flips a
// handful of the column's weakest bits, growing with the timing shortfall.
func (m *DeviceModel) TRCDFlipPositions(bank, rowAddr, col int, trcdNS, vpp float64, iter int) []int32 {
	r := m.RowTRCD(bank, rowAddr, vpp, iter)
	return r.AppendFlips(nil, col, trcdNS)
}

// RowTRCD is one row's activation-latency state for one measurement
// iteration: the row's worst-column requirement resolved once, then queried
// per column. A whole-row read uses it to skip every per-column derivation
// when its latency is safely above the requirement.
type RowTRCD struct {
	m               *DeviceModel
	bank, row, iter int
	reqNS           float64 // worst-column requirement before measurement noise
	worst           int     // the row's worst column, or -1 until a column needs it
}

// RowTRCD resolves a row's activation-latency state at voltage vpp for
// measurement iteration iter.
func (m *DeviceModel) RowTRCD(bank, rowAddr int, vpp float64, iter int) RowTRCD {
	rp := m.row(bank, rowAddr)
	return RowTRCD{
		m: m, bank: bank, row: rowAddr, iter: iter,
		reqNS: m.trcd.rowReqNS(rp.trcdBase, rp.trcdScale, vpp), worst: -1,
	}
}

// SafeNS returns a latency no column of the row can fail at: column jitter
// only lowers a column's requirement below the row's, and measurement noise
// raises it by at most maxNormAbs·trcdIterNoiseNS. Rounding is monotone, so
// the bound also holds for the requirement as ColumnReqNS computes it.
func (r *RowTRCD) SafeNS() float64 { return r.reqNS + maxNormAbs*trcdIterNoiseNS }

// ColumnReqNS returns the minimum reliable latency of column col (ns).
func (r *RowTRCD) ColumnReqNS(col int) float64 {
	m := r.m
	if r.worst < 0 {
		r.worst = m.root.Derive("trcdworst", r.bank, r.row).Intn(m.geom.Columns())
	}
	req := r.reqNS
	// Per-column offset: one hash-selected worst column defines the row's
	// requirement; others are faster by a deterministic jitter.
	if col != r.worst {
		req -= math.Abs(m.root.Derive("trcdcol", r.bank, r.row, col).Normal(0, trcdColumnJitterNS))
	}
	req += m.root.Derive("trcditer", r.bank, r.row, col, r.iter).Normal(0, trcdIterNoiseNS)
	return req
}

// AtIter returns the row's state for measurement iteration iter. The
// worst-column requirement and SafeNS do not depend on the iteration, so
// they carry over.
func (r RowTRCD) AtIter(iter int) RowTRCD {
	r.iter = iter
	return r
}

// Violated reports whether column col read trcdNS after activation returns
// flipped bits: exactly when AppendFlips appends at least one position.
func (r *RowTRCD) Violated(col int, trcdNS float64) bool {
	return r.shortfall(col, trcdNS) > 0
}

// shortfall returns how far trcdNS falls short of column col's
// requirement, or 0 when the read is reliable. A latency at or past SafeNS
// is reliable in every column without deriving the column's requirement.
func (r *RowTRCD) shortfall(col int, trcdNS float64) float64 {
	if trcdNS >= r.SafeNS() {
		return 0
	}
	return max(0, r.ColumnReqNS(col)-trcdNS)
}

// AppendFlips appends to dst the bit positions TRCDFlipPositions reports
// for column col read trcdNS after activation, and returns the extended
// slice.
func (r *RowTRCD) AppendFlips(dst []int32, col int, trcdNS float64) []int32 {
	shortfall := r.shortfall(col, trcdNS)
	if shortfall <= 0 {
		return dst
	}
	nf := 1 + int(shortfall/0.4)
	const colBits = 64 * 8
	if nf > colBits {
		nf = colBits
	}
	s := r.m.root.Derive("trcdbits", r.bank, r.row, col)
	base := int32(col * colBits)
	var seen [colBits / 64]uint64
	for added := 0; added < nf; {
		b := s.Intn(colBits)
		if seen[b/64]&(1<<uint(b%64)) == 0 {
			seen[b/64] |= 1 << uint(b%64)
			dst = append(dst, base+int32(b))
			added++
		}
	}
	return dst
}

// GroundTruthRowTRCDNS returns the row's true worst-column tRCD requirement
// at voltage vpp without measurement noise (test hook).
func (m *DeviceModel) GroundTruthRowTRCDNS(bank, rowAddr int, vpp float64) float64 {
	rp := m.row(bank, rowAddr)
	return m.trcd.rowReqNS(rp.trcdBase, rp.trcdScale, vpp)
}
