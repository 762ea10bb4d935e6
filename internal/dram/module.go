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
	"errors"
	"fmt"

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

// rowState is the mutable per-row device state.
type rowState struct {
	data       []byte // last written image; nil if never written
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

	c := float64(count)
	sub := m.geom.SubarrayRows
	// Distance-one neighbors accumulate full single-side exposure;
	// distance-two neighbors a small fraction. Disturbance does not cross
	// subarray boundaries (isolation sense amplifiers between subarrays).
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
	if m.trr != nil {
		m.trr.observeActivations(phys, count)
	}
	return nil
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

// read is the one read path behind Read and ReadRow: ncols column bursts
// starting at column col0, the i-th issued at t0 + i·step.
func (m *Module) read(t0, step PS, bankIdx, col0, ncols int) ([]byte, error) {
	if step < 0 {
		return nil, fmt.Errorf("%w: column step %d", ErrTimeRegression, step)
	}
	if err := m.checkTime(t0); err != nil {
		return nil, err
	}
	bk, err := m.bank(bankIdx)
	if err != nil {
		return nil, err
	}
	if bk.openRow < 0 {
		return nil, ErrBankClosed
	}
	if col0 < 0 || col0+ncols > m.geom.Columns() {
		return nil, fmt.Errorf("%w: column %d", ErrBadAddress, col0)
	}
	m.now = t0 + PS(ncols-1)*step
	phys := bk.openRow
	rs := bk.row(phys)

	sp := span{out: make([]byte, ncols*BurstBytes), base: int32(col0 * BurstBytes * 8), t0: t0, step: step}
	if rs.data != nil {
		copy(sp.out, rs.data[col0*BurstBytes:])
	}

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
	if rs.data != nil {
		m.readRetention(&sp, bankIdx, phys, rs)
	}

	// Activation-timing violations, each column at its own latency.
	trcd := m.model.RowTRCD(bankIdx, phys, m.vpp, rs.writeEpoch)
	for i := 0; i < ncols; i++ {
		trcdNS := float64(sp.at(i)-bk.openedAt) / float64(PSPerNS)
		m.trcdFlips = trcd.AppendFlips(m.trcdFlips[:0], col0+i, trcdNS)
		for _, pos := range m.trcdFlips {
			sp.flip(pos)
		}
	}
	return sp.out, nil
}

// span is the image of consecutive column bursts being read.
type span struct {
	out      []byte
	base     int32 // row-relative bit position of out's first bit
	t0, step PS    // read time of the first burst, and between bursts
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
		sp.out[rel/8] ^= 1 << uint(rel%8)
	}
}

// readRetention applies the retention flips each burst of the span shows at
// its own read time. The bulk failure count grows with elapsed time, so it is
// evaluated at the first and last burst and per burst only when the two
// differ; each weak cell is judged at its own burst's time.
func (m *Module) readRetention(sp *span, bankIdx, phys int, rs *rowState) {
	ncols := len(sp.out) / BurstBytes
	elapsedMS := func(i int) float64 { return float64(sp.at(i)-rs.lastWrite) / float64(PSPerMS) }
	if elapsedMS(ncols-1) <= 0 {
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

// dominantPattern infers the victim-row data pattern from the stored image
// so the physics model can apply its data-pattern dependence. Rows holding
// non-canonical data use the strongest pattern's behavior.
func (m *Module) dominantPattern(rs *rowState) patternKind {
	if rs.data == nil || len(rs.data) == 0 {
		return defaultPattern
	}
	return patternFromByte(rs.data[0])
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
	rs := bk.row(bk.openRow)
	if rs.data == nil {
		rs.data = make([]byte, m.geom.RowBytes)
	}
	copy(rs.data[col*BurstBytes:], data)
	return nil
}

// WriteRow writes a full row image in one call and resets the row's
// disturbance and retention state, modeling a complete re-initialization
// (the initialize_row step of the paper's algorithms). The bank must have
// the row open.
func (m *Module) WriteRow(t PS, bankIdx, logicalRow int, image []byte) error {
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
	phys := m.scheme.LogicalToPhysical(logicalRow)
	if bk.openRow != phys {
		return fmt.Errorf("%w: row %d not open", ErrBankClosed, logicalRow)
	}
	if len(image) != m.geom.RowBytes {
		return fmt.Errorf("%w: row image must be %d bytes, got %d", ErrBadAddress, m.geom.RowBytes, len(image))
	}
	rs := bk.row(phys)
	if rs.data == nil {
		rs.data = make([]byte, m.geom.RowBytes)
	}
	copy(rs.data, image)
	rs.writeEpoch++
	rs.lastWrite = t
	rs.hammerLo, rs.hammerHi, rs.hammerD2 = 0, 0, 0
	return nil
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
	if !ok || rs.data == nil {
		// Never-written rows have no defined content to preserve.
		if ok {
			rs.hammerLo, rs.hammerHi, rs.hammerD2 = 0, 0, 0
			rs.lastWrite = t
		}
		return
	}
	// Materialize hammer flips into the stored image.
	if hcEq := rs.doubleSidedEquivalent(); hcEq > 0 {
		pat := m.dominantPattern(rs)
		n := m.model.HammerFlipCount(bankIdx, phys, pat, m.vpp, hcEq, m.tempC, rs.writeEpoch)
		for _, pos := range m.model.HammerFlipPositions(bankIdx, phys, n) {
			rs.data[pos/8] ^= 1 << uint(pos%8)
		}
	}
	elapsedMS := float64(t-rs.lastWrite) / float64(PSPerMS)
	for _, pos := range m.model.RetentionFlipPositions(bankIdx, phys, m.vpp, elapsedMS, m.tempC, rs.writeEpoch) {
		rs.data[pos/8] ^= 1 << uint(pos%8)
	}
	rs.writeEpoch++
	rs.lastWrite = t
	rs.hammerLo, rs.hammerHi, rs.hammerD2 = 0, 0, 0
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
