package dram_test

import (
	"fmt"
	"math"
	"testing"

	"github.com/dramstudy/rhvpp/internal/dram"
	"github.com/dramstudy/rhvpp/internal/mapping"
	"github.com/dramstudy/rhvpp/internal/pattern"
	"github.com/dramstudy/rhvpp/internal/physics"
	"github.com/dramstudy/rhvpp/internal/rng"
	"github.com/dramstudy/rhvpp/internal/softmc"
)

// perColumnProbe is Alg. 2's per-column check as the characterization code
// issues it command by command: re-initialize the row at nominal timing,
// read one column at the programmed tRCD, compare, next column. It is the
// oracle Controller.ProbeRowTRCD must match.
func perColumnProbe(c *softmc.Controller, bank, row int, fill byte) (int, error) {
	for col := 0; col < c.Module().Geometry().Columns(); col++ {
		trcd := c.Timing().TRCD
		c.ResetTiming()
		if err := c.InitializeRow(bank, row, fill); err != nil {
			return -1, err
		}
		if err := c.SetTRCD(trcd); err != nil {
			return -1, err
		}
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

// probeController builds a controller over a module with cols columns per
// row, logical rows equal to physical ones, and the named TRR engine.
func probeController(t *testing.T, name string, cols int, trr string) *softmc.Controller {
	t.Helper()
	p, ok := physics.ProfileByName(name)
	if !ok {
		t.Fatalf("profile %s missing", name)
	}
	opts := []dram.Option{dram.WithScheme(mapping.Direct{})}
	switch trr {
	case "counter":
		opts = append(opts, dram.WithTRR(2))
	case "sampling":
		opts = append(opts, dram.WithSamplingTRR(0.01, 9))
	}
	g := physics.Geometry{Banks: 2, RowsPerBank: 1024, RowBytes: cols * dram.BurstBytes, SubarrayRows: 512}
	return softmc.New(dram.NewModule(p, g, 5, opts...))
}

// TestProbeRowTRCDMatchesPerColumnLoop is the equivalence property of the
// row-granular Alg. 2 probe: twin controllers, one probing whole rows and
// one issuing the per-column commands, run the same randomized trials —
// subarray-edge and interior rows, prior writes and double- or single-sided
// hammering of the neighbours, waits, refreshes, VPP from nominal down to
// VPPmin (and below it, where both must fail alike), and tRCD on the 1.5 ns
// grid one quantum either side of the row's SafeNS as well as far below and
// above it. After every trial the outcome, the first faulty column, the
// error, the controller's clock and timing, and the complete device state
// must agree, with and without a TRR engine attached.
func TestProbeRowTRCDMatchesPerColumnLoop(t *testing.T) {
	var faulty, later, clean, refused int
	for _, cols := range []int{16, 128} {
		for i, name := range []string{"A0", "B3", "C0"} {
			for _, trr := range []string{"none", "counter", "sampling"} {
				t.Run(fmt.Sprintf("%s/%dcols/trr=%s", name, cols, trr), func(t *testing.T) {
					probe, oracle := probeController(t, name, cols, trr), probeController(t, name, cols, trr)
					both := []*softmc.Controller{probe, oracle}
					do := func(f func(c *softmc.Controller) error) {
						t.Helper()
						for _, c := range both {
							if err := f(c); err != nil {
								t.Fatal(err)
							}
						}
					}
					s := rng.New(uint64(100*cols + i))
					const bank = 1
					rows := []int{0, 1, 300, 510, 511, 512, 513, 1022, 1023}
					vmin := probe.Module().Profile().VPPMin
					for trial := 0; trial < 60; trial++ {
						row := rows[s.Intn(len(rows))]
						vpp := []float64{physics.VPPNominal, vmin, vmin + (physics.VPPNominal-vmin)*s.Float64()}[s.Intn(3)]
						temp := []float64{physics.RowHammerTestTempC, physics.RetentionTestTempC}[s.Intn(2)]
						do(func(c *softmc.Controller) error {
							c.Module().SetVPP(vpp)
							c.Module().SetTemperature(temp)
							return nil
						})
						var inRange []int
						for _, n := range []int{row - 2, row - 1, row + 1, row + 2} {
							if n >= 0 && n < 1024 {
								inRange = append(inRange, n)
							}
						}
						if s.Bool(0.5) {
							n, fill := inRange[s.Intn(len(inRange))], pattern.All()[s.Intn(6)].Byte()
							do(func(c *softmc.Controller) error { return c.InitializeRow(bank, n, fill) })
						}
						if s.Bool(0.5) {
							count := s.Intn(200_000)
							if row > 0 && row < 1023 && s.Bool(0.5) {
								do(func(c *softmc.Controller) error { return c.HammerDoubleSided(bank, row-1, row+1, count) })
							} else {
								n := inRange[s.Intn(len(inRange))]
								do(func(c *softmc.Controller) error { return c.Hammer(bank, n, count) })
							}
						}
						if s.Bool(0.3) {
							ms := []float64{0.001, 10, 100}[s.Intn(3)]
							do(func(c *softmc.Controller) error { return c.WaitMS(ms) })
						}
						if s.Bool(0.2) {
							do(func(c *softmc.Controller) error { return c.Refresh() })
						}
						if s.Bool(0.1) { // the module stops responding
							vpp = vmin - 0.1
							do(func(c *softmc.Controller) error { c.Module().SetVPP(vpp); return nil })
						}
						rt := probe.Module().Model().RowTRCD(bank, row, probe.Module().VPP(), 0)
						safe := rt.SafeNS()
						q := physics.CommandQuantumNS
						edge := math.Ceil(safe/q) * q
						trcd := []float64{edge - q, edge - q, edge, edge + q, q * float64(1+s.Intn(12)), 30}[s.Intn(6)]
						do(func(c *softmc.Controller) error { return c.SetTRCD(trcd) })

						fill := pattern.All()[s.Intn(6)].Byte()
						got, gotErr := probe.ProbeRowTRCD(bank, row, fill)
						want, wantErr := perColumnProbe(oracle, bank, row, fill)
						where := fmt.Sprintf("trial %d: row %d fill %#x VPP %.3f tRCD %.1f (SafeNS %.3f)", trial, row, fill, vpp, trcd, safe)
						if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got != want {
							t.Fatalf("%s: probe = %d, %v; per-column loop = %d, %v", where, got, gotErr, want, wantErr)
						}
						if probe.Now() != oracle.Now() || probe.Timing() != oracle.Timing() {
							t.Fatalf("%s: controller at %d with %+v, per-column loop at %d with %+v",
								where, probe.Now(), probe.Timing(), oracle.Now(), oracle.Timing())
						}
						if a, b := probe.Module().StateString(), oracle.Module().StateString(); a != b {
							t.Fatalf("%s: device state differs\nprobe:\n%s\nper-column loop:\n%s", where, a, b)
						}
						switch {
						case wantErr != nil:
							refused++
						case want > 0:
							later++
							faulty++
						case want == 0:
							faulty++
						default:
							clean++
						}
					}
				})
			}
		}
	}
	t.Logf("%d faulty rows (%d past column 0), %d clean, %d refused below VPPmin", faulty, later, clean, refused)
	if faulty == 0 || later == 0 || clean == 0 || refused == 0 {
		t.Error("the trials miss an outcome")
	}
}

// TestProbeRowTRCDAllocsIndependentOfColumns is the probe's allocation
// witness: at a tRCD past every column's requirement, probing a 128-column
// row allocates no more than probing a 16-column one (the per-column loop
// allocates one burst per column).
func TestProbeRowTRCDAllocsIndependentOfColumns(t *testing.T) {
	allocs := map[int]float64{}
	for _, cols := range []int{16, 128} {
		c := probeController(t, "B3", cols, "none")
		c.Module().SetVPP(c.Module().Profile().VPPMin)
		if err := c.SetTRCD(30); err != nil {
			t.Fatal(err)
		}
		probe := func() {
			if col, err := c.ProbeRowTRCD(0, 300, 0xAA); col != -1 || err != nil {
				t.Fatalf("%d cols: probe at 30 ns = %d, %v; want a clean row", cols, col, err)
			}
		}
		probe() // first use samples the row and allocates its image
		allocs[cols] = testing.AllocsPerRun(20, probe)
	}
	t.Logf("allocations per probe: %v at 16 columns, %v at 128", allocs[16], allocs[128])
	if allocs[128] > allocs[16] {
		t.Errorf("probe allocations grow with the column count: %v per probe at 16 columns, %v at 128", allocs[16], allocs[128])
	}
}

// TestReadRowSafeMismatchMatchesReadRowSafe: the mismatch-count read issues
// ReadRowSafe's commands — twin controllers that fill, hammer and wait
// alike, one counting with ReadRowSafeMismatch and one with CountMismatch
// over ReadRowSafe, agree on the count, the clock, the restored tRCD
// override and the complete device state — and a read that fails (the bank
// already open) fails alike.
func TestReadRowSafeMismatchMatchesReadRowSafe(t *testing.T) {
	counted, imaged := probeController(t, "B3", 16, "none"), probeController(t, "B3", 16, "none")
	both := []*softmc.Controller{counted, imaged}
	flipped := 0
	for i, hc := range []int{0, 50_000, 300_000, 1_000_000} {
		kind := pattern.All()[i]
		for _, c := range both {
			c.Module().SetVPP(c.Module().Profile().VPPMin)
			if err := c.InitializeRow(0, 100, kind.Byte()); err != nil {
				t.Fatal(err)
			}
			if err := c.HammerDoubleSided(0, 99, 101, hc); err != nil {
				t.Fatal(err)
			}
			if err := c.WaitMS(64); err != nil {
				t.Fatal(err)
			}
			if err := c.SetTRCD(6); err != nil {
				t.Fatal(err)
			}
		}
		got, err := counted.ReadRowSafeMismatch(0, 100, kind.Byte())
		if err != nil {
			t.Fatal(err)
		}
		data, err := imaged.ReadRowSafe(0, 100)
		if err != nil {
			t.Fatal(err)
		}
		if want := kind.CountMismatch(data); got != want {
			t.Fatalf("hc %d: ReadRowSafeMismatch = %d, CountMismatch(ReadRowSafe) = %d", hc, got, want)
		}
		if got > 0 {
			flipped++
		}
		if counted.Now() != imaged.Now() || counted.Timing() != imaged.Timing() {
			t.Fatalf("hc %d: controller at %d with %+v, ReadRowSafe at %d with %+v",
				hc, counted.Now(), counted.Timing(), imaged.Now(), imaged.Timing())
		}
		if a, b := counted.Module().StateString(), imaged.Module().StateString(); a != b {
			t.Fatalf("hc %d: device state differs\nReadRowSafeMismatch:\n%s\nReadRowSafe:\n%s", hc, a, b)
		}
	}
	if flipped == 0 {
		t.Error("no read counted a flip")
	}
	for _, c := range both {
		if err := c.Module().Activate(c.Now(), 0, 100); err != nil {
			t.Fatal(err)
		}
	}
	_, errCounted := counted.ReadRowSafeMismatch(0, 100, 0xFF)
	_, errImaged := imaged.ReadRowSafe(0, 100)
	if errCounted == nil || errCounted.Error() != errImaged.Error() {
		t.Errorf("read of an open bank: ReadRowSafeMismatch error %v, ReadRowSafe error %v", errCounted, errImaged)
	}
}
