package softmc

import (
	"bytes"
	"errors"
	"testing"

	"github.com/dramstudy/rhvpp/internal/dram"
	"github.com/dramstudy/rhvpp/internal/mapping"
	"github.com/dramstudy/rhvpp/internal/physics"
)

func testGeometry() physics.Geometry {
	return physics.Geometry{Banks: 2, RowsPerBank: 2048, RowBytes: 1024, SubarrayRows: 512}
}

func newCtrl(t *testing.T, name string) *Controller {
	t.Helper()
	p, ok := physics.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	return New(dram.NewModule(p, testGeometry(), 7, dram.WithScheme(mapping.Direct{})))
}

func TestInitializeAndReadRow(t *testing.T) {
	c := newCtrl(t, "A3")
	if err := c.InitializeRow(0, 10, 0xAA); err != nil {
		t.Fatal(err)
	}
	data, err := c.ReadRow(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != c.Module().Geometry().RowBytes {
		t.Fatalf("row length %d", len(data))
	}
	for i, b := range data {
		if b != 0xAA {
			t.Fatalf("byte %d = %#x, want 0xAA", i, b)
		}
	}
}

func TestReadColumn(t *testing.T) {
	c := newCtrl(t, "A3")
	if err := c.InitializeRow(0, 11, 0x55); err != nil {
		t.Fatal(err)
	}
	d, err := c.ReadColumn(0, 11, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != dram.BurstBytes {
		t.Fatalf("burst length %d", len(d))
	}
	for _, b := range d {
		if b != 0x55 {
			t.Fatalf("corrupted burst byte %#x", b)
		}
	}
}

func TestSetTRCDQuantization(t *testing.T) {
	c := newCtrl(t, "A3")
	if err := c.SetTRCD(13.0); err != nil {
		t.Fatal(err)
	}
	// 13.0 rounds UP to the next 1.5ns multiple: 13.5.
	if got := c.Timing().TRCD; got != 13.5 {
		t.Errorf("tRCD = %v, want 13.5", got)
	}
	if err := c.SetTRCD(12.0); err != nil {
		t.Fatal(err)
	}
	if got := c.Timing().TRCD; got != 12.0 {
		t.Errorf("tRCD = %v, want 12.0 (already on grid)", got)
	}
	if err := c.SetTRCD(0.5); !errors.Is(err, ErrTimingOutOfRange) {
		t.Errorf("tiny tRCD err = %v", err)
	}
	if err := c.SetTRCD(500); !errors.Is(err, ErrTimingOutOfRange) {
		t.Errorf("huge tRCD err = %v", err)
	}
}

func TestResetTiming(t *testing.T) {
	c := newCtrl(t, "A3")
	if err := c.SetTRCD(6.0); err != nil {
		t.Fatal(err)
	}
	c.ResetTiming()
	if c.Timing() != NominalTiming() {
		t.Errorf("timing after reset = %+v", c.Timing())
	}
}

func TestClockAdvances(t *testing.T) {
	c := newCtrl(t, "A3")
	t0 := c.Now()
	if err := c.InitializeRow(0, 1, 0xFF); err != nil {
		t.Fatal(err)
	}
	if c.Now() <= t0 {
		t.Error("clock did not advance over InitializeRow")
	}
	t1 := c.Now()
	if err := c.WaitMS(5); err != nil {
		t.Fatal(err)
	}
	if got := c.Now() - t1; got != dram.MSToPS(5) {
		t.Errorf("WaitMS advanced %d ps, want %d", got, dram.MSToPS(5))
	}
	if err := c.WaitMS(-1); !errors.Is(err, ErrTimingOutOfRange) {
		t.Errorf("negative wait err = %v", err)
	}
}

func TestHammerDoubleSidedFlipsVictim(t *testing.T) {
	c := newCtrl(t, "B0")
	victim, aggLo, aggHi := 100, 99, 101
	for _, r := range []int{victim, aggLo, aggHi} {
		fill := byte(0x00)
		if r == victim {
			fill = 0xFF
		}
		if err := c.InitializeRow(0, r, fill); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.HammerDoubleSided(0, aggLo, aggHi, 150000); err != nil {
		t.Fatal(err)
	}
	data, err := c.ReadRow(0, victim)
	if err != nil {
		t.Fatal(err)
	}
	flips := 0
	for _, b := range data {
		x := b ^ 0xFF
		for x != 0 {
			x &= x - 1
			flips++
		}
	}
	if flips == 0 {
		t.Error("no flips after 150K double-sided hammers")
	}
}

func TestShortTRCDReadCorrupts(t *testing.T) {
	c := newCtrl(t, "A0")
	c.Module().SetVPP(c.Module().Profile().VPPMin)
	if err := c.InitializeRow(0, 30, 0xAA); err != nil {
		t.Fatal(err)
	}
	if err := c.SetTRCD(3.0); err != nil {
		t.Fatal(err)
	}
	corrupt := false
	for col := 0; col < c.Module().Geometry().Columns() && !corrupt; col++ {
		d, err := c.ReadColumn(0, 30, col)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range d {
			if b != 0xAA {
				corrupt = true
				break
			}
		}
		if err := c.InitializeRow(0, 30, 0xAA); err != nil {
			t.Fatal(err)
		}
	}
	if !corrupt {
		t.Error("no corruption at tRCD=3ns on a failing module at VPPmin")
	}
}

func TestPingFailsBelowVPPMin(t *testing.T) {
	c := newCtrl(t, "A3")
	c.Module().SetVPP(1.0)
	if err := c.Ping(); !errors.Is(err, dram.ErrNoComm) {
		t.Errorf("ping below VPPmin err = %v, want ErrNoComm", err)
	}
}

func TestHammerObserveVictimsFindsNeighbors(t *testing.T) {
	c := newCtrl(t, "B0")
	window := make([]int, 16)
	for i := range window {
		window[i] = 200 + i
	}
	victims, err := c.HammerObserveVictims(208, 600000, window)
	if err != nil {
		t.Fatal(err)
	}
	// At a high single-count probe, victims may include distance-two rows
	// (disambiguation is ReverseEngineer's job); everything must be within
	// physical distance two, and at least one immediate neighbor must flip.
	foundAdjacent := false
	for _, v := range victims {
		if v < 206 || v > 210 || v == 208 {
			t.Errorf("victim %d outside the blast radius of row 208", v)
		}
		if v == 207 || v == 209 {
			foundAdjacent = true
		}
	}
	if !foundAdjacent {
		t.Errorf("victims = %v: no immediate neighbor flipped", victims)
	}
}

func TestReverseEngineerThroughController(t *testing.T) {
	c := newCtrl(t, "B3")
	window := make([]int, 20)
	for i := range window {
		window[i] = 300 + i
	}
	adj, err := mapping.ReverseEngineer(c, window, 1_500_000)
	if err != nil {
		t.Fatal(err)
	}
	resolved := 0
	for _, v := range window[2 : len(window)-2] {
		ns, err := adj.Neighbors(v)
		if err != nil {
			continue
		}
		resolved++
		for _, n := range ns {
			if n != v-1 && n != v+1 {
				t.Errorf("victim %d: non-adjacent aggressor %d survived onset filtering", v, n)
			}
		}
	}
	if resolved < len(window)/2 {
		t.Errorf("only %d/%d interior victims resolved", resolved, len(window)-4)
	}
}

func TestRefreshAdvancesClock(t *testing.T) {
	c := newCtrl(t, "A3")
	t0 := c.Now()
	if err := c.Refresh(); err != nil {
		t.Fatal(err)
	}
	if c.Now() <= t0 {
		t.Error("refresh did not advance the clock")
	}
}

// TestInitializeRowAllocsIndependentOfRowBytes: initializing a row reuses
// the controller's row image, so its allocations do not grow with the row
// size (8-column vs 128-column rows) — and, with the row's device state
// already in place, there are none.
func TestInitializeRowAllocsIndependentOfRowBytes(t *testing.T) {
	p, _ := physics.ProfileByName("B3")
	allocs := map[int]float64{}
	for _, rowBytes := range []int{512, 8192} {
		g := testGeometry()
		g.RowBytes = rowBytes
		c := New(dram.NewModule(p, g, 7, dram.WithScheme(mapping.Direct{})))
		fill := byte(0)
		init := func() {
			fill ^= 0xFF
			if err := c.InitializeRow(0, 10, fill); err != nil {
				t.Fatal(err)
			}
		}
		init()
		allocs[rowBytes] = testing.AllocsPerRun(100, init)
		data, err := c.ReadRow(0, 10)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range data {
			if b != fill {
				t.Fatalf("%d-byte row: byte %d = %#x after InitializeRow(%#x)", rowBytes, i, b, fill)
			}
		}
	}
	if allocs[512] != allocs[8192] || allocs[8192] != 0 {
		t.Errorf("InitializeRow allocations: %.1f at 512 B, %.1f at 8 KiB rows; want 0 at both", allocs[512], allocs[8192])
	}
}

// TestReadRowMatchesReadColumns: the controller's whole-row read returns
// what Alg. 2-style column reads at the same tRCD return, column by column,
// on a tRCD-failing module at VPPmin where reads at a short latency
// corrupt data.
func TestReadRowMatchesReadColumns(t *testing.T) {
	p, _ := physics.ProfileByName("B3")
	mk := func() *Controller {
		c := New(dram.NewModule(p, testGeometry(), 7, dram.WithScheme(mapping.Direct{})))
		c.Module().SetVPP(p.VPPMin)
		return c
	}
	whole, cols := mk(), mk()
	for _, trcd := range []float64{6, 9, 12, 13.5, 30} {
		for _, c := range []*Controller{whole, cols} {
			if err := c.InitializeRow(0, 20, 0x33); err != nil {
				t.Fatal(err)
			}
			if err := c.SetTRCD(trcd); err != nil {
				t.Fatal(err)
			}
		}
		// The controller's ReadRow issues bursts tCCD apart after one
		// activation; reproduce it on the module directly, one Read each.
		got, err := whole.ReadRow(0, 20)
		if err != nil {
			t.Fatal(err)
		}
		if trcd == 6 && bytes.Count(got, []byte{0x33}) == len(got) {
			t.Fatal("a 6 ns activation at VPPmin read the row clean")
		}
		m := cols.Module()
		at := cols.Now()
		if err := m.Activate(at, 0, 20); err != nil {
			t.Fatal(err)
		}
		at += dram.NSToPS(cols.quantize(trcd))
		for col := 0; col < m.Geometry().Columns(); col++ {
			d, err := m.Read(at, 0, col)
			if err != nil {
				t.Fatal(err)
			}
			if string(d) != string(got[col*dram.BurstBytes:(col+1)*dram.BurstBytes]) {
				t.Fatalf("tRCD %v ns: column %d differs between ReadRow and Read", trcd, col)
			}
			at += dram.NSToPS(cols.quantize(cols.timing.TCCD))
		}
		cols.now = at
		if err := m.Precharge(at, 0); err != nil {
			t.Fatal(err)
		}
		cols.advance(cols.timing.TRP)
		if whole.Now() != cols.Now() {
			t.Fatalf("tRCD %v ns: controller clocks diverged: %d vs %d", trcd, whole.Now(), cols.Now())
		}
		whole.ResetTiming()
		cols.ResetTiming()
	}
}
