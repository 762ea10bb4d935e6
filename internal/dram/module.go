// Package dram implements the simulated DDR4 module: the command-level
// device the SoftMC-style controller drives. It is the boundary between the
// characterization algorithms (which may only issue ACT/PRE/RD/WR/REF
// commands and observe returned data, exactly as against real silicon) and
// the ground-truth physics model behind it.
//
// The module tracks, per row, the disturbance exposure accumulated from
// neighbor activations since the last full-row write or refresh, the elapsed
// unrefreshed time, and the activation timing of reads, and materializes bit
// flips through the physics model when data is read. Bit flips therefore
// appear and persist exactly as they would on hardware: they survive until
// the row is rewritten or refreshed, grow monotonically with additional
// hammering, and depend on the wordline voltage at which the module is
// operated.
package dram

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"github.com/dramstudy/rhvpp/internal/mapping"
	"github.com/dramstudy/rhvpp/internal/physics"
)

// Command-protocol errors.
var (
	// ErrNoComm indicates the module cannot communicate because VPP is
	// below the module's VPPmin (§7: below VPPmin the access transistors
	// cannot connect cells to bitlines and the module stops responding).
	ErrNoComm = errors.New("dram: module not responding (VPP below VPPmin)")
	// ErrBankOpen is returned by ACT to an already-open bank.
	ErrBankOpen = errors.New("dram: bank already has an open row")
	// ErrBankClosed is returned by RD/WR to a precharged bank.
	ErrBankClosed = errors.New("dram: bank has no open row")
	// ErrBadAddress is returned for out-of-range bank/row/column addresses.
	ErrBadAddress = errors.New("dram: address out of range")
	// ErrTimeRegression is returned when a command is issued at a time
	// before the previous command.
	ErrTimeRegression = errors.New("dram: command time moved backwards")
)

// PS is a point in simulated time, in picoseconds.
type PS int64

// Common time conversions.
const (
	PSPerNS = PS(1_000)
	PSPerMS = PS(1_000_000_000)
)

// NSToPS converts nanoseconds to picoseconds.
func NSToPS(ns float64) PS { return PS(ns * float64(PSPerNS)) }

// MSToPS converts milliseconds to picoseconds.
func MSToPS(ms float64) PS { return PS(ms * float64(PSPerMS)) }

// BurstBytes is the number of bytes transferred by one RD/WR burst
// (64 bits x BL8 across the rank).
const BurstBytes = 64

// rowState is the mutable per-row device state. A row's stored content is
// held in one of two forms: uniform (every byte is fill), which FillRow
// writes for the characterization algorithms, or a dense image, which Write
// and WriteRow store and a refresh builds when it latches flips. A row
// never written holds neither and reads as zeros.
type rowState struct {
	data       []byte // dense image; nil when uniform or never written
	fill       byte   // every byte of the content, when uniform
	uniform    bool   // content is fill throughout (data is nil)
	writeEpoch int    // counts full-row writes; keys measurement noise
	lastWrite  PS     // time of last full-row write or refresh

	// Disturbance exposure accumulated since lastWrite, split by side so
	// double-sided attacks are distinguished from single-sided ones.
	hammerLo float64 // activations of the physical row below
	hammerHi float64 // activations of the physical row above
	hammerD2 float64 // activations at physical distance two
}

// bankState is the mutable per-bank device state.
type bankState struct {
	openRow   int // physical row address, or -1 when precharged
	openedAt  PS
	rows      map[int]*rowState // keyed by physical row address
	refCursor int               // rolling auto-refresh pointer
}

// Module is one simulated DIMM. It is NOT safe for concurrent use; the
// controller serializes commands exactly as a memory channel does.
type Module struct {
	model  *physics.DeviceModel
	scheme mapping.Scheme
	geom   physics.Geometry

	vpp   float64
	tempC float64
	now   PS

	banks []bankState
	trr   trrDefense

	trcdFlips []int32 // reused by read for each burst's tRCD flips
	mask      []byte  // ReadRowMismatch's flip mask, all zero between calls
}

// Option configures a Module.
type Option func(*Module)

// WithTRR enables an in-DRAM target-row-refresh engine with the given
// tracker capacity. The paper disables TRR by never issuing refresh
// commands; the engine exists for the defense-interaction ablations.
func WithTRR(trackers int) Option {
	return func(m *Module) { m.trr = newTRREngine(trackers) }
}

// WithSamplingTRR enables a sampling-based target-row-refresh engine (the
// tracker family that many-sided attacks dilute) with the given per-
// activation sampling probability.
func WithSamplingTRR(prob float64, seed uint64) Option {
	return func(m *Module) { m.trr = newSamplingTRR(prob, seed) }
}

// WithScheme overrides the manufacturer-default internal address mapping.
func WithScheme(s mapping.Scheme) Option {
	return func(m *Module) { m.scheme = s }
}

// NewModule builds a simulated module for the given profile. The seed
// selects the device instance (two modules with the same profile and seed
// are indistinguishable). Like physics.NewDeviceModel, it panics on a
// geometry that fails Geometry.Validate.
func NewModule(prof physics.ModuleProfile, geom physics.Geometry, seed uint64, opts ...Option) *Module {
	m := &Module{
		model:  physics.NewDeviceModel(prof, geom, seed),
		scheme: mapping.DefaultFor(prof.Mfr),
		geom:   geom,
		vpp:    physics.VPPNominal,
		tempC:  physics.RowHammerTestTempC,
	}
	m.banks = make([]bankState, geom.Banks)
	for i := range m.banks {
		m.banks[i] = bankState{openRow: -1, rows: make(map[int]*rowState)}
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Profile returns the module's identity and published characteristics.
func (m *Module) Profile() physics.ModuleProfile { return m.model.Profile() }

// Geometry returns the array organization.
func (m *Module) Geometry() physics.Geometry { return m.geom }

// Scheme returns the internal address mapping in use.
func (m *Module) Scheme() mapping.Scheme { return m.scheme }

// Model exposes the ground-truth physics model for validation tooling and
// tests. Characterization code must not use it.
func (m *Module) Model() *physics.DeviceModel { return m.model }

// Now returns the module's notion of current time.
func (m *Module) Now() PS { return m.now }

// SetVPP drives the external wordline-voltage rail. The setpoint is
// quantized to the supply's 1 mV resolution.
func (m *Module) SetVPP(v float64) {
	m.vpp = float64(int(v*1000+0.5)) / 1000
}

// VPP returns the current wordline voltage.
func (m *Module) VPP() float64 { return m.vpp }

// SetTemperature sets the regulated die temperature in Celsius.
func (m *Module) SetTemperature(c float64) { m.tempC = c }

// Temperature returns the die temperature.
func (m *Module) Temperature() float64 { return m.tempC }

// Responds reports whether the module communicates at the current VPP
// (true iff VPP >= VPPmin).
func (m *Module) Responds() bool {
	return m.vpp >= m.Profile().VPPMin-1e-9
}

func (m *Module) checkTime(t PS) error {
	if t < m.now {
		return fmt.Errorf("%w: %d < %d", ErrTimeRegression, t, m.now)
	}
	if !m.Responds() {
		return ErrNoComm
	}
	m.now = t
	return nil
}

func (m *Module) bank(b int) (*bankState, error) {
	if b < 0 || b >= len(m.banks) {
		return nil, fmt.Errorf("%w: bank %d", ErrBadAddress, b)
	}
	return &m.banks[b], nil
}

func (m *Module) checkRow(r int) error {
	if r < 0 || r >= m.geom.RowsPerBank {
		return fmt.Errorf("%w: row %d", ErrBadAddress, r)
	}
	return nil
}

// row returns (creating if needed) the state of a physical row.
func (bk *bankState) row(phys int) *rowState {
	rs, ok := bk.rows[phys]
	if !ok {
		rs = &rowState{}
		bk.rows[phys] = rs
	}
	return rs
}

// written reports whether the row holds defined content.
func (rs *rowState) written() bool { return rs.uniform || rs.data != nil }

// setFill stores uniform content, dropping any dense image.
func (rs *rowState) setFill(fill byte) {
	rs.data, rs.fill, rs.uniform = nil, fill, true
}

// dense returns the row's content as a dense image of rowBytes, building
// it from the fill (or zeros, for a row never written) the first time.
func (rs *rowState) dense(rowBytes int) []byte {
	if rs.data == nil {
		rs.data = make([]byte, rowBytes)
		if rs.uniform {
			fillBytes(rs.data, rs.fill)
		}
		rs.uniform = false
	}
	return rs.data
}

// copyContent writes the row's content from byte off on into out, which
// must be zero on entry.
func (rs *rowState) copyContent(out []byte, off int) {
	switch {
	case rs.data != nil:
		copy(out, rs.data[off:])
	case rs.uniform:
		fillBytes(out, rs.fill)
	}
}

// fillBytes sets every byte of b to v.
func fillBytes(b []byte, v byte) {
	if len(b) == 0 {
		return
	}
	b[0] = v
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// rewrite resets the row's write epoch, retention clock and disturbance
// exposure, as a full-row write or a refresh does.
func (rs *rowState) rewrite(t PS) {
	rs.writeEpoch++
	rs.lastWrite = t
	rs.hammerLo, rs.hammerHi, rs.hammerD2 = 0, 0, 0
}

// Activate opens a row (logical address) in a bank at time t.
func (m *Module) Activate(t PS, bankIdx, logicalRow int) error {
	return m.activateN(t, bankIdx, logicalRow, 1)
}

// ActivateMany performs count back-to-back activate/precharge cycles of the
// same row, leaving the bank precharged. It is the bulk path the controller
// uses for hammer loops; its observable effect is identical to count
// Activate/Precharge pairs issued at the minimum legal cadence.
func (m *Module) ActivateMany(t PS, bankIdx, logicalRow, count int) error {
	if count <= 0 {
		return nil
	}
	if err := m.activateN(t, bankIdx, logicalRow, count); err != nil {
		return err
	}
	bk := &m.banks[bankIdx]
	bk.openRow = -1
	// Time advances by count activation cycles (tRAS + tRP each).
	m.now = t + PS(count)*NSToPS(physics.TRASNominalNS+physics.TRPNominalNS)
	return nil
}

// activateN opens the row and applies count activations' worth of
// disturbance to its physical neighbors.
func (m *Module) activateN(t PS, bankIdx, logicalRow, count int) error {
	if err := m.checkTime(t); err != nil {
		return err
	}
	bk, err := m.bank(bankIdx)
	if err != nil {
		return err
	}
	if err := m.checkRow(logicalRow); err != nil {
		return err
	}
	if bk.openRow != -1 {
		return fmt.Errorf("%w: bank %d row %d", ErrBankOpen, bankIdx, bk.openRow)
	}
	phys := m.scheme.LogicalToPhysical(logicalRow)
	bk.openRow = phys
	bk.openedAt = t

	m.expose(bk, phys, float64(count))
	if m.trr != nil {
		m.trr.observeActivations(phys, count)
	}
	return nil
}

// expose adds c activations of physical row phys to its neighbors'
// disturbance exposure. Distance-one neighbors accumulate full single-side
// exposure; distance-two neighbors a small fraction. Disturbance does not
// cross subarray boundaries (isolation sense amplifiers between subarrays).
func (m *Module) expose(bk *bankState, phys int, c float64) {
	sub := m.geom.SubarrayRows
	if lo := phys - 1; lo >= 0 && sameSubarray(phys, lo, sub) {
		bk.row(lo).hammerHi += c
	}
	if hi := phys + 1; hi < m.geom.RowsPerBank && sameSubarray(phys, hi, sub) {
		bk.row(hi).hammerLo += c
	}
	if lo2 := phys - 2; lo2 >= 0 && sameSubarray(phys, lo2, sub) {
		bk.row(lo2).hammerD2 += c
	}
	if hi2 := phys + 2; hi2 < m.geom.RowsPerBank && sameSubarray(phys, hi2, sub) {
		bk.row(hi2).hammerD2 += c
	}
}

func sameSubarray(a, b, sub int) bool {
	if sub <= 0 {
		return true
	}
	return a/sub == b/sub
}

// Precharge closes the open row of a bank.
func (m *Module) Precharge(t PS, bankIdx int) error {
	if err := m.checkTime(t); err != nil {
		return err
	}
	bk, err := m.bank(bankIdx)
	if err != nil {
		return err
	}
	bk.openRow = -1
	return nil
}

// Read performs a RD burst from the open row of a bank: 64 bytes at column
// col. The returned data includes every bit flip the physics model holds for
// the row at this moment — RowHammer disturbance, retention loss, and
// activation-timing violations (if the read happens sooner after ACT than
// the row's tRCD requirement at the current VPP).
func (m *Module) Read(t PS, bankIdx, col int) ([]byte, error) {
	return m.read(t, 0, bankIdx, col, 1)
}

// ReadRow streams every column burst of the open row of a bank, column c at
// time t0 + c·step, and returns the row image in column order. The bytes and
// the device state it leaves are exactly those of one Read per column at
// those times; the row-level physics is resolved once per call instead of
// once per column. step must not be negative.
func (m *Module) ReadRow(t0, step PS, bankIdx int) ([]byte, error) {
	return m.read(t0, step, bankIdx, 0, m.geom.Columns())
}

// ReadRowMismatch is ReadRow followed by a count of the bits that differ
// from fill: it returns exactly the mismatch count of the bytes ReadRow
// would return and leaves exactly the device state ReadRow would leave, but
// builds no row image. The flips are resolved into the module's all-zero
// flip mask, counted as they are toggled, and the mask is cleared again.
// When the row holds fill throughout, that count is the answer; otherwise
// (a dense row, a row never written, or another fill) the row's content
// XOR the mask is compared with fill word by word.
func (m *Module) ReadRowMismatch(t0, step PS, bankIdx int, fill byte) (int, error) {
	ncols := m.geom.Columns()
	bk, rs, err := m.openForRead(t0, step, bankIdx, 0, ncols)
	if err != nil {
		return 0, err
	}
	if len(m.mask) != m.geom.RowBytes {
		m.mask = make([]byte, m.geom.RowBytes)
	}
	sp := span{out: m.mask, t0: t0, step: step}
	m.flipSpan(&sp, bankIdx, bk, rs)
	n := sp.set
	if !rs.uniform || rs.fill != fill {
		n = rs.mismatch(sp.out, fill)
	}
	if sp.set != 0 {
		clear(sp.out)
	}
	return n, nil
}

// mismatch counts the bits of the row's content XOR mask that differ from
// fill, eight bytes at a time (rows are whole bursts, so whole words).
func (rs *rowState) mismatch(mask []byte, fill byte) int {
	const ones = 0x0101_0101_0101_0101
	want := uint64(fill) * ones
	n := 0
	if rs.data != nil {
		for i := 0; i < len(mask); i += 8 {
			n += bits.OnesCount64(binary.LittleEndian.Uint64(rs.data[i:]) ^ binary.LittleEndian.Uint64(mask[i:]) ^ want)
		}
		return n
	}
	if rs.uniform {
		want ^= uint64(rs.fill) * ones
	}
	for i := 0; i < len(mask); i += 8 {
		n += bits.OnesCount64(binary.LittleEndian.Uint64(mask[i:]) ^ want)
	}
	return n
}

// read is the one image-building read path behind Read and ReadRow: ncols
// column bursts starting at column col0, the i-th issued at t0 + i·step.
// The span starts as the row's content and takes its flips in place.
func (m *Module) read(t0, step PS, bankIdx, col0, ncols int) ([]byte, error) {
	bk, rs, err := m.openForRead(t0, step, bankIdx, col0, ncols)
	if err != nil {
		return nil, err
	}
	sp := span{out: make([]byte, ncols*BurstBytes), base: int32(col0 * BurstBytes * 8), t0: t0, step: step}
	rs.copyContent(sp.out, col0*BurstBytes)
	m.flipSpan(&sp, bankIdx, bk, rs)
	return sp.out, nil
}

// openForRead checks a read of ncols bursts from column col0 of the open
// row of a bank, issued from t0 step apart, advances the clock to its last
// burst, and returns the bank and the open row's state.
func (m *Module) openForRead(t0, step PS, bankIdx, col0, ncols int) (*bankState, *rowState, error) {
	if step < 0 {
		return nil, nil, fmt.Errorf("%w: column step %d", ErrTimeRegression, step)
	}
	if err := m.checkTime(t0); err != nil {
		return nil, nil, err
	}
	bk, err := m.bank(bankIdx)
	if err != nil {
		return nil, nil, err
	}
	if bk.openRow < 0 {
		return nil, nil, ErrBankClosed
	}
	if col0 < 0 || col0+ncols > m.geom.Columns() {
		return nil, nil, fmt.Errorf("%w: column %d", ErrBadAddress, col0)
	}
	m.now = t0 + PS(ncols-1)*step
	return bk, bk.row(bk.openRow), nil
}

// flipSpan toggles into sp every bit flip the open row shows at its bursts'
// read times: RowHammer disturbance, retention loss, and each column's
// activation-timing violations.
func (m *Module) flipSpan(sp *span, bankIdx int, bk *bankState, rs *rowState) {
	phys := bk.openRow

	// RowHammer flips from accumulated neighbor activations.
	if hcEq := rs.doubleSidedEquivalent(); hcEq > 0 {
		pat := m.dominantPattern(rs)
		if n := m.model.HammerFlipCount(bankIdx, phys, pat, m.vpp, hcEq, m.tempC, rs.writeEpoch); n > 0 {
			for _, pos := range m.model.HammerFlipPositions(bankIdx, phys, n) {
				sp.flip(pos)
			}
		}
	}

	// Retention flips from unrefreshed time.
	if rs.written() {
		m.readRetention(sp, bankIdx, phys, rs)
	}

	// Activation-timing violations, each column at its own latency.
	ncols := len(sp.out) / BurstBytes
	col0 := int(sp.base) / (BurstBytes * 8)
	trcd := m.model.RowTRCD(bankIdx, phys, m.vpp, rs.writeEpoch)
	for i := 0; i < ncols; i++ {
		trcdNS := float64(sp.at(i)-bk.openedAt) / float64(PSPerNS)
		m.trcdFlips = trcd.AppendFlips(m.trcdFlips[:0], col0+i, trcdNS)
		for _, pos := range m.trcdFlips {
			sp.flip(pos)
		}
	}
}

// span holds the bits of consecutive column bursts being read: the row's
// content for an image read, or a flip mask starting at zero. It counts
// the net change in its set bits as flips toggle them, which for a mask is
// its number of set bits.
type span struct {
	out      []byte
	base     int32 // row-relative bit position of out's first bit
	t0, step PS    // read time of the first burst, and between bursts
	set      int   // bits set by flip minus bits cleared by it
}

// at returns the read time of the span's i-th burst.
func (sp *span) at(i int) PS { return sp.t0 + PS(i)*sp.step }

// column returns the span-relative burst holding a row-relative bit
// position, or -1 when the span does not cover it.
func (sp *span) column(pos int32) int {
	rel := pos - sp.base
	if rel < 0 || int(rel) >= len(sp.out)*8 {
		return -1
	}
	return int(rel) / (BurstBytes * 8)
}

// flip inverts a row-relative bit position if the span covers it.
func (sp *span) flip(pos int32) {
	if rel := pos - sp.base; rel >= 0 && int(rel) < len(sp.out)*8 {
		b, sh := &sp.out[rel/8], uint(rel%8)
		sp.set += 1 - 2*int(*b>>sh&1)
		*b ^= 1 << sh
	}
}

// readRetention applies the retention flips each burst of the span shows at
// its own read time. The bulk failure count grows with elapsed time, so it is
// evaluated at the first and last burst and per burst only when the two
// differ; each weak cell is judged at its own burst's time.
func (m *Module) readRetention(sp *span, bankIdx, phys int, rs *rowState) {
	ncols := len(sp.out) / BurstBytes
	elapsedMS := func(i int) float64 { return float64(sp.at(i)-rs.lastWrite) / float64(PSPerMS) }
	if !m.retentionMayFlip(bankIdx, phys, elapsedMS(ncols-1)) {
		return
	}
	ret := m.model.RowRetention(bankIdx, phys, m.vpp, m.tempC, rs.writeEpoch)
	first, last := ret.BulkCount(elapsedMS(0)), ret.BulkCount(elapsedMS(ncols-1))
	var counts []int // per-burst bulk counts, when they differ across the span
	if first == last {
		for _, pos := range ret.BulkPositions(first) {
			sp.flip(pos)
		}
	} else {
		counts = make([]int, ncols)
		most := 0
		for i := range counts {
			counts[i] = ret.BulkCount(elapsedMS(i))
			most = max(most, counts[i])
		}
		for rank, pos := range ret.BulkPositions(most) {
			if i := sp.column(pos); i >= 0 && rank < counts[i] {
				sp.flip(pos)
			}
		}
	}
	for w := 0; w < ret.WeakCells(); w++ {
		pos := ret.WeakPos(w)
		i := sp.column(pos)
		if i < 0 {
			continue
		}
		count := first
		if counts != nil {
			count = counts[i]
		}
		if ret.WeakFlipped(w, elapsedMS(i), count) {
			sp.flip(pos)
		}
	}
}

// retentionMayFlip reports whether a row read elapsedMS after its last
// write or refresh can show retention flips: not when no time has passed,
// nor below the row's retention-quiet bound.
func (m *Module) retentionMayFlip(bankIdx, phys int, elapsedMS float64) bool {
	return elapsedMS > 0 && elapsedMS >= m.model.RetentionQuietMS(bankIdx, phys, m.vpp, m.tempC)
}

// ColumnProbe is the command schedule of one step of Alg. 2's per-column
// loop, as offsets from the step's first ACT: the row is opened, filled
// whole with Fill and closed (initialize_row), then opened again, one
// column burst is read, and the row is closed.
type ColumnProbe struct {
	Fill           byte
	Write, InitPre PS // the full-row WR and the PRE closing it
	ReadAct, Read  PS // the second ACT and the RD burst
	ReadPre        PS // the PRE closing the read
	Period         PS // to the next step's first ACT
}

// ProbeColumns runs p's step for columns 0, 1, ... of a row, the c-th
// step starting at t0 + c·Period, and stops after the first column whose
// burst differs from the fill written, returning that column, or -1 when
// every column reads clean. The result and the device state it leaves (time, row
// content, write epoch and last write, the neighbors' exposure, the bank) are
// exactly those of issuing every step's commands one by one, but the row's
// physics is resolved once: each step rewrites the row, so its burst holds
// no hammer flips, and the read comes before the row's retention-quiet
// bound, so it holds no retention flips either; what is left is the
// column's tRCD check, and that runs only when the read latency is below
// the row's SafeNS, each column at its own write epoch.
//
// It reports ok=false, having issued nothing, when it cannot vouch for
// that: with a TRR engine attached (it observes every activation), when a
// command of the schedule would fail or go back in time, or when the read
// could show retention flips. The caller then issues the commands itself.
func (m *Module) ProbeColumns(t0 PS, bankIdx, logicalRow int, p ColumnProbe) (col int, ok bool) {
	inOrder := 0 <= p.Write && p.Write <= p.InitPre && p.InitPre <= p.ReadAct &&
		p.ReadAct <= p.Read && p.Read <= p.ReadPre && p.ReadPre <= p.Period
	if m.trr != nil || !inOrder || t0 < m.now || !m.Responds() ||
		bankIdx < 0 || bankIdx >= len(m.banks) || m.checkRow(logicalRow) != nil {
		return -1, false
	}
	bk := &m.banks[bankIdx]
	phys := m.scheme.LogicalToPhysical(logicalRow)
	if bk.openRow != -1 || m.retentionMayFlip(bankIdx, phys, float64(p.Read-p.Write)/float64(PSPerMS)) {
		return -1, false
	}
	rs := bk.row(phys)
	trcdNS := float64(p.Read-p.ReadAct) / float64(PSPerNS)
	first, steps := -1, m.geom.Columns()
	if trcd := m.model.RowTRCD(bankIdx, phys, m.vpp, rs.writeEpoch); trcdNS < trcd.SafeNS() {
		for c := 0; c < steps; c++ {
			// Step c's read sees the epoch of its own write.
			if trcd = trcd.AtIter(rs.writeEpoch + c + 1); trcd.Violated(c, trcdNS) {
				first, steps = c, c+1
				break
			}
		}
	}

	last := t0 + PS(steps-1)*p.Period
	m.expose(bk, phys, float64(2*steps)) // two activations per step
	rs.setFill(p.Fill)
	rs.rewrite(last + p.Write)
	rs.writeEpoch += steps - 1 // one full-row write per step
	bk.openedAt = last + p.ReadAct
	m.now = last + p.ReadPre
	return first, true
}

// doubleSidedEquivalent folds the per-side exposure counters into the
// double-sided-equivalent hammer count the physics model is calibrated in:
// balanced two-sided activations count fully, the unbalanced remainder at
// the single-sided weight, and distance-two activations at a small weight.
func (rs *rowState) doubleSidedEquivalent() float64 {
	lo, hi := rs.hammerLo, rs.hammerHi
	minSide := lo
	if hi < lo {
		minSide = hi
	}
	diff := lo + hi - 2*minSide
	return minSide + physics.SingleSidedWeight*diff + physics.DistanceTwoWeight*rs.hammerD2
}

// dominantPattern infers the victim-row data pattern from the stored
// content's first byte so the physics model can apply its data-pattern
// dependence. Rows holding non-canonical data use the strongest pattern's
// behavior.
func (m *Module) dominantPattern(rs *rowState) patternKind {
	switch {
	case rs.uniform:
		return patternFromByte(rs.fill)
	case rs.data != nil:
		return patternFromByte(rs.data[0])
	}
	return defaultPattern
}

// Write performs a WR burst into the open row of a bank.
func (m *Module) Write(t PS, bankIdx, col int, data []byte) error {
	if err := m.checkTime(t); err != nil {
		return err
	}
	bk, err := m.bank(bankIdx)
	if err != nil {
		return err
	}
	if bk.openRow < 0 {
		return ErrBankClosed
	}
	if col < 0 || col >= m.geom.Columns() {
		return fmt.Errorf("%w: column %d", ErrBadAddress, col)
	}
	if len(data) != BurstBytes {
		return fmt.Errorf("%w: burst must be %d bytes, got %d", ErrBadAddress, BurstBytes, len(data))
	}
	copy(bk.row(bk.openRow).dense(m.geom.RowBytes)[col*BurstBytes:], data)
	return nil
}

// WriteRow writes a full row image in one call and resets the row's
// disturbance and retention state, modeling a complete re-initialization
// (the initialize_row step of the paper's algorithms). The bank must have
// the row open.
func (m *Module) WriteRow(t PS, bankIdx, logicalRow int, image []byte) error {
	bk, phys, err := m.openForRewrite(t, bankIdx, logicalRow)
	if err != nil {
		return err
	}
	if len(image) != m.geom.RowBytes {
		return fmt.Errorf("%w: row image must be %d bytes, got %d", ErrBadAddress, m.geom.RowBytes, len(image))
	}
	rs := bk.row(phys)
	rs.uniform = false
	copy(rs.dense(m.geom.RowBytes), image)
	rs.rewrite(t)
	return nil
}

// FillRow is WriteRow of an image holding fill in every byte, without the
// image.
func (m *Module) FillRow(t PS, bankIdx, logicalRow int, fill byte) error {
	bk, phys, err := m.openForRewrite(t, bankIdx, logicalRow)
	if err != nil {
		return err
	}
	rs := bk.row(phys)
	rs.setFill(fill)
	rs.rewrite(t)
	return nil
}

// openForRewrite checks a full-row write of a logical row at time t and
// returns its bank and physical row.
func (m *Module) openForRewrite(t PS, bankIdx, logicalRow int) (*bankState, int, error) {
	if err := m.checkTime(t); err != nil {
		return nil, 0, err
	}
	bk, err := m.bank(bankIdx)
	if err != nil {
		return nil, 0, err
	}
	if err := m.checkRow(logicalRow); err != nil {
		return nil, 0, err
	}
	phys := m.scheme.LogicalToPhysical(logicalRow)
	if bk.openRow != phys {
		return nil, 0, fmt.Errorf("%w: row %d not open", ErrBankClosed, logicalRow)
	}
	return bk, phys, nil
}

// RefreshRow refreshes one row (logical address): the row's current content
// — including any accumulated bit flips — is restored to full charge, and
// disturbance/retention clocks reset. The bank must be precharged.
func (m *Module) RefreshRow(t PS, bankIdx, logicalRow int) error {
	if err := m.checkTime(t); err != nil {
		return err
	}
	bk, err := m.bank(bankIdx)
	if err != nil {
		return err
	}
	if bk.openRow != -1 {
		return fmt.Errorf("%w: bank %d", ErrBankOpen, bankIdx)
	}
	if err := m.checkRow(logicalRow); err != nil {
		return err
	}
	m.refreshPhys(t, bankIdx, bk, m.scheme.LogicalToPhysical(logicalRow))
	return nil
}

// refreshPhys latches the row's current observable content (flips become
// permanent) and resets its charge state.
func (m *Module) refreshPhys(t PS, bankIdx int, bk *bankState, phys int) {
	rs, ok := bk.rows[phys]
	if !ok || !rs.written() {
		// Never-written rows have no defined content to preserve.
		if ok {
			rs.hammerLo, rs.hammerHi, rs.hammerD2 = 0, 0, 0
			rs.lastWrite = t
		}
		return
	}
	// Materialize hammer and retention flips into the stored content,
	// which stops being uniform once a flip lands.
	latch := func(positions []int32) {
		if len(positions) == 0 {
			return
		}
		data := rs.dense(m.geom.RowBytes)
		for _, pos := range positions {
			data[pos/8] ^= 1 << uint(pos%8)
		}
	}
	if hcEq := rs.doubleSidedEquivalent(); hcEq > 0 {
		pat := m.dominantPattern(rs)
		n := m.model.HammerFlipCount(bankIdx, phys, pat, m.vpp, hcEq, m.tempC, rs.writeEpoch)
		latch(m.model.HammerFlipPositions(bankIdx, phys, n))
	}
	elapsedMS := float64(t-rs.lastWrite) / float64(PSPerMS)
	latch(m.model.RetentionFlipPositions(bankIdx, phys, m.vpp, elapsedMS, m.tempC, rs.writeEpoch))
	rs.rewrite(t)
}

// Refresh issues one REF command: a slice of rows in every bank is
// refreshed (rolling pointer), and — if the module has a TRR engine — the
// engine may additionally refresh the neighbors of rows it suspects of
// being RowHammer aggressors. All banks must be precharged.
func (m *Module) Refresh(t PS) error {
	if err := m.checkTime(t); err != nil {
		return err
	}
	for b := range m.banks {
		if m.banks[b].openRow != -1 {
			return fmt.Errorf("%w: bank %d", ErrBankOpen, b)
		}
	}
	// JESD79-4: the full array is covered by 8192 REF commands per tREFW.
	slice := m.geom.RowsPerBank / 8192
	if slice < 1 {
		slice = 1
	}
	for b := range m.banks {
		bk := &m.banks[b]
		for i := 0; i < slice; i++ {
			m.refreshPhys(t, b, bk, bk.refCursor)
			bk.refCursor = (bk.refCursor + 1) % m.geom.RowsPerBank
		}
		if m.trr != nil {
			for _, victim := range m.trr.victimsToRefresh(m.geom.RowsPerBank) {
				m.refreshPhys(t, b, bk, victim)
			}
		}
	}
	return nil
}

// Wait advances device time without issuing a command (retention testing).
func (m *Module) Wait(t PS) error {
	return m.checkTime(t)
}
