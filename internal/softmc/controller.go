// Package softmc implements the FPGA-based memory-controller abstraction the
// characterization algorithms drive, modeled on the SoftMC infrastructure the
// paper extends for DDR4 (§4.1). The controller owns the command clock,
// schedules commands on the FPGA's 1.5 ns quantum (§4.3 footnote 10), applies
// the standard DDR4 timing parameters with an overridable tRCD (for the
// Alg. 2 latency sweeps), and exposes the bulk row-initialization, hammering,
// readback, and wait primitives the test programs are written in.
//
// Like the real infrastructure, the controller issues no refresh commands
// unless a test explicitly asks for them, which both avoids retention
// interference and starves any in-DRAM TRR defense (§4.1 "Disabling Sources
// of Interference").
package softmc

import (
	"errors"
	"fmt"
	"math"

	"github.com/dramstudy/rhvpp/internal/dram"
	"github.com/dramstudy/rhvpp/internal/physics"
)

// ErrTimingOutOfRange is returned for nonsensical timing overrides.
var ErrTimingOutOfRange = errors.New("softmc: timing parameter out of range")

// Timing bundles the DDR4 timing parameters the controller enforces, in
// nanoseconds. Zero values mean "nominal".
type Timing struct {
	TRCD float64 // activate-to-read latency
	TRAS float64 // activate-to-precharge latency
	TRP  float64 // precharge-to-activate latency
	TCCD float64 // read-to-read (column-to-column) latency
}

// Nominal returns the JESD79-4 nominal timing set used by default.
func NominalTiming() Timing {
	return Timing{
		TRCD: physics.TRCDNominalNS,
		TRAS: physics.TRASNominalNS,
		TRP:  physics.TRPNominalNS,
		TCCD: 5.0,
	}
}

// Controller drives one module over the simulated channel.
type Controller struct {
	mod    *dram.Module
	timing Timing
	now    dram.PS
}

// New builds a controller for the module with nominal timing.
func New(mod *dram.Module) *Controller {
	return &Controller{mod: mod, timing: NominalTiming()}
}

// Module returns the attached module.
func (c *Controller) Module() *dram.Module { return c.mod }

// Now returns the controller's current command-clock time.
func (c *Controller) Now() dram.PS { return c.now }

// Timing returns the currently programmed timing parameters.
func (c *Controller) Timing() Timing { return c.timing }

// SetTRCD overrides the activate-to-read latency, quantized to the FPGA's
// 1.5 ns command scheduling granularity (values are rounded up so the
// programmed latency is never optimistically short).
func (c *Controller) SetTRCD(ns float64) error {
	if ns < physics.CommandQuantumNS || ns > 100 {
		return fmt.Errorf("%w: tRCD %.2fns", ErrTimingOutOfRange, ns)
	}
	c.timing.TRCD = c.quantize(ns)
	return nil
}

// ResetTiming restores nominal timing parameters.
func (c *Controller) ResetTiming() { c.timing = NominalTiming() }

// quantize rounds a latency up to the FPGA's command quantum.
func (c *Controller) quantize(ns float64) float64 {
	q := physics.CommandQuantumNS
	return math.Ceil(ns/q-1e-9) * q
}

// advance moves the command clock forward by ns nanoseconds, aligned to the
// command quantum.
func (c *Controller) advance(ns float64) {
	c.now += c.span(ns)
}

// span returns the command-clock time advance(ns) moves by.
func (c *Controller) span(ns float64) dram.PS {
	return dram.NSToPS(c.quantize(ns))
}

// Ping verifies the module responds at the current VPP by opening and
// closing row 0 of bank 0.
func (c *Controller) Ping() error {
	if err := c.mod.Activate(c.now, 0, 0); err != nil {
		return err
	}
	c.advance(c.timing.TRAS)
	if err := c.mod.Precharge(c.now, 0); err != nil {
		return err
	}
	c.advance(c.timing.TRP)
	return nil
}

// InitializeRow fills an entire row with the given byte: ACT, a full-row
// write, then PRE. This is the initialize_row step of Algs. 1-3.
func (c *Controller) InitializeRow(bank, row int, fill byte) error {
	if err := c.mod.Activate(c.now, bank, row); err != nil {
		return fmt.Errorf("init row %d: %w", row, err)
	}
	c.advance(c.timing.TRCD)
	if err := c.mod.FillRow(c.now, bank, row, fill); err != nil {
		return fmt.Errorf("init row %d: %w", row, err)
	}
	// Honor charge restoration before closing the row.
	c.advance(c.timing.TRAS)
	if err := c.mod.Precharge(c.now, bank); err != nil {
		return fmt.Errorf("init row %d: %w", row, err)
	}
	c.advance(c.timing.TRP)
	return nil
}

// ReadRow activates a row using the programmed tRCD, streams out every
// column burst tCCD apart, precharges, and returns the full row image.
func (c *Controller) ReadRow(bank, row int) ([]byte, error) {
	step, err := c.openRead(bank, row)
	if err != nil {
		return nil, err
	}
	out, err := c.mod.ReadRow(c.now, step, bank)
	if err != nil {
		return nil, fmt.Errorf("read row %d: %w", row, err)
	}
	if err := c.closeRead(bank, row, step); err != nil {
		return nil, err
	}
	return out, nil
}

// openRead activates a row for a full-row read with the programmed tRCD and
// returns the column step, tCCD.
func (c *Controller) openRead(bank, row int) (dram.PS, error) {
	if err := c.mod.Activate(c.now, bank, row); err != nil {
		return 0, fmt.Errorf("read row %d: %w", row, err)
	}
	c.advance(c.timing.TRCD)
	return c.span(c.timing.TCCD), nil
}

// closeRead moves past a full-row read's bursts and precharges the row.
func (c *Controller) closeRead(bank, row int, step dram.PS) error {
	c.now += dram.PS(c.mod.Geometry().Columns()) * step
	if err := c.mod.Precharge(c.now, bank); err != nil {
		return fmt.Errorf("read row %d: %w", row, err)
	}
	c.advance(c.timing.TRP)
	return nil
}

// safeReadTRCDNS is a conservative activation latency above every tested
// module's requirement at any voltage (the worst failing module needs 24 ns
// at VPPmin). Data-comparison reads during RowHammer and retention tests use
// it so that activation-latency violations cannot masquerade as RowHammer or
// retention bit flips — the §4.1 "disabling sources of interference"
// discipline applied to timing.
const safeReadTRCDNS = 30

// ReadRowSafe reads a full row at the conservative safe activation latency,
// regardless of the currently programmed tRCD override, restoring the
// override afterwards.
func (c *Controller) ReadRowSafe(bank, row int) ([]byte, error) {
	saved := c.timing.TRCD
	c.timing.TRCD = safeReadTRCDNS
	defer func() { c.timing.TRCD = saved }()
	return c.ReadRow(bank, row)
}

// ReadRowSafeMismatch issues exactly ReadRowSafe's commands and returns the
// number of bits of the row that read differently from fill — the
// compare_data step of Algs. 1 and 3 — without building the row image.
func (c *Controller) ReadRowSafeMismatch(bank, row int, fill byte) (int, error) {
	saved := c.timing.TRCD
	c.timing.TRCD = safeReadTRCDNS
	defer func() { c.timing.TRCD = saved }()
	step, err := c.openRead(bank, row)
	if err != nil {
		return 0, err
	}
	n, err := c.mod.ReadRowMismatch(c.now, step, bank, fill)
	if err != nil {
		return 0, fmt.Errorf("read row %d: %w", row, err)
	}
	if err := c.closeRead(bank, row, step); err != nil {
		return 0, err
	}
	return n, nil
}

// ReadColumn activates a row with the programmed tRCD, reads a single column
// burst, and closes the row — the per-column access of Alg. 2.
func (c *Controller) ReadColumn(bank, row, col int) ([]byte, error) {
	if err := c.mod.Activate(c.now, bank, row); err != nil {
		return nil, fmt.Errorf("read col: %w", err)
	}
	c.advance(c.timing.TRCD)
	d, err := c.mod.Read(c.now, bank, col)
	if err != nil {
		return nil, fmt.Errorf("read col: %w", err)
	}
	// Keep the row open long enough for restoration relative to ACT.
	rest := c.timing.TRAS - c.timing.TRCD
	if rest > 0 {
		c.advance(rest)
	}
	if err := c.mod.Precharge(c.now, bank); err != nil {
		return nil, fmt.Errorf("read col: %w", err)
	}
	c.advance(c.timing.TRP)
	return d, nil
}

// ProbeRowTRCD is one iteration of Alg. 2's check of a row at the
// programmed tRCD: for each column in order it re-initializes the row with
// fill at nominal timing (InitializeRow) and reads the column back at the
// programmed tRCD (ReadColumn), and it stops after the first column whose
// burst differs from fill. It returns that column, or -1 when every column
// reads clean, and leaves nominal timing with the programmed tRCD.
//
// The module runs the whole command stream in one call when it can vouch
// for the outcome (dram.Module.ProbeColumns); otherwise the commands are
// issued column by column. Either way the device and the controller end
// exactly where the per-column commands leave them.
func (c *Controller) ProbeRowTRCD(bank, row int, fill byte) (int, error) {
	initTiming, readTiming := NominalTiming(), NominalTiming()
	readTiming.TRCD = c.timing.TRCD
	c.timing = readTiming

	// The schedule InitializeRow and ReadColumn would issue.
	p := dram.ColumnProbe{Fill: fill, Write: c.span(initTiming.TRCD)}
	p.InitPre = p.Write + c.span(initTiming.TRAS)
	p.ReadAct = p.InitPre + c.span(initTiming.TRP)
	p.Read = p.ReadAct + c.span(readTiming.TRCD)
	p.ReadPre = p.Read
	if rest := readTiming.TRAS - readTiming.TRCD; rest > 0 {
		p.ReadPre += c.span(rest)
	}
	p.Period = p.ReadPre + c.span(readTiming.TRP)

	cols := c.mod.Geometry().Columns()
	if col, ok := c.mod.ProbeColumns(c.now, bank, row, p); ok {
		steps := cols
		if col >= 0 {
			steps = col + 1
		}
		c.now += dram.PS(steps) * p.Period
		return col, nil
	}
	for col := 0; col < cols; col++ {
		c.timing = initTiming
		if err := c.InitializeRow(bank, row, fill); err != nil {
			return -1, err
		}
		c.timing = readTiming
		data, err := c.ReadColumn(bank, row, col)
		if err != nil {
			return -1, err
		}
		for _, got := range data {
			if got != fill {
				return col, nil
			}
		}
	}
	return -1, nil
}

// Hammer performs count activate/precharge cycles of a single row
// (single-sided hammering).
func (c *Controller) Hammer(bank, row, count int) error {
	if count <= 0 {
		return nil
	}
	if err := c.mod.ActivateMany(c.now, bank, row, count); err != nil {
		return fmt.Errorf("hammer row %d: %w", row, err)
	}
	c.now = c.mod.Now()
	return nil
}

// HammerDoubleSided performs the paper's double-sided attack: the two
// aggressor rows are each activated count times in an alternating fashion
// (hammer count is defined per aggressor row, §4.2).
func (c *Controller) HammerDoubleSided(bank, aggLo, aggHi, count int) error {
	if count <= 0 {
		return nil
	}
	// The device folds exposure additively, so issuing the two aggressors'
	// activations as two bulk bursts is observably identical to strict
	// alternation while keeping the simulation O(1) in count.
	if err := c.Hammer(bank, aggLo, count); err != nil {
		return err
	}
	return c.Hammer(bank, aggHi, count)
}

// WaitMS idles the channel for the given simulated milliseconds (retention
// testing). No refresh commands are issued while waiting.
func (c *Controller) WaitMS(ms float64) error {
	if ms < 0 {
		return fmt.Errorf("%w: wait %.1fms", ErrTimingOutOfRange, ms)
	}
	c.now += dram.MSToPS(ms)
	return c.mod.Wait(c.now)
}

// Refresh issues one REF command (used only by defense ablations and
// mitigation studies, never by the characterization algorithms).
func (c *Controller) Refresh() error {
	if err := c.mod.Refresh(c.now); err != nil {
		return err
	}
	c.advance(350) // tRFC for 8Gb-class devices, ~350ns
	return nil
}

// RefreshRow refreshes a single row (selective-refresh mitigation).
func (c *Controller) RefreshRow(bank, row int) error {
	if err := c.mod.RefreshRow(c.now, bank, row); err != nil {
		return err
	}
	c.advance(c.timing.TRAS + c.timing.TRP)
	return nil
}

// HammerObserveVictims implements mapping.Prober: it initializes the
// candidate rows with a stripe pattern, single-sidedly hammers the aggressor,
// and reports which candidates flipped. Used by adjacency reverse
// engineering (§4.2 "Finding Physically Adjacent Rows").
func (c *Controller) HammerObserveVictims(aggressor, count int, candidates []int) ([]int, error) {
	const fill = 0xFF
	for _, r := range candidates {
		if r == aggressor {
			continue
		}
		if err := c.InitializeRow(0, r, fill); err != nil {
			return nil, err
		}
	}
	if err := c.InitializeRow(0, aggressor, 0x00); err != nil {
		return nil, err
	}
	if err := c.Hammer(0, aggressor, count); err != nil {
		return nil, err
	}
	var victims []int
	for _, r := range candidates {
		if r == aggressor {
			continue
		}
		flips, err := c.ReadRowSafeMismatch(0, r, fill)
		if err != nil {
			return nil, err
		}
		if flips > 0 {
			victims = append(victims, r)
		}
	}
	return victims, nil
}
