package dram

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"github.com/dramstudy/rhvpp/internal/mapping"
	"github.com/dramstudy/rhvpp/internal/pattern"
	"github.com/dramstudy/rhvpp/internal/physics"
	"github.com/dramstudy/rhvpp/internal/rng"
)

// TestQuickRandomCommandSequences drives the module with arbitrary command
// streams: every command must either succeed or fail with one of the typed
// protocol errors — never panic, never corrupt the device invariants.
func TestQuickRandomCommandSequences(t *testing.T) {
	p, _ := physics.ProfileByName("B0")
	f := func(seed uint64, ops []byte) bool {
		m := NewModule(p, testGeometry(), 3, WithScheme(mapping.Direct{}))
		s := rng.New(seed)
		at := PS(0)
		for _, op := range ops {
			at += PS(s.Intn(100_000) + 1)
			bank := s.Intn(3) - 1 // occasionally invalid
			row := s.Intn(m.Geometry().RowsPerBank+10) - 5
			col := s.Intn(m.Geometry().Columns()+2) - 1
			var err error
			switch op % 7 {
			case 0:
				err = m.Activate(at, bank, row)
			case 1:
				err = m.Precharge(at, bank)
			case 2:
				_, err = m.Read(at, bank, col)
			case 3:
				err = m.Write(at, bank, col, make([]byte, BurstBytes))
			case 4:
				err = m.ActivateMany(at, bank, row, s.Intn(5000))
				at = m.Now()
			case 5:
				err = m.Refresh(at)
			case 6:
				err = m.Wait(at)
			}
			if err != nil && !isProtocolError(err) {
				t.Logf("op %d: unexpected error type: %v", op, err)
				return false
			}
			if m.Now() > at {
				at = m.Now()
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func isProtocolError(err error) bool {
	for _, want := range []error{ErrNoComm, ErrBankOpen, ErrBankClosed, ErrBadAddress, ErrTimeRegression} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

// TestQuickReadAfterWriteIntegrity verifies that within the retention-safe
// window and without hammering, every written row image reads back exactly.
func TestQuickReadAfterWriteIntegrity(t *testing.T) {
	p, _ := physics.ProfileByName("A3")
	f := func(seed uint64, fillRaw byte, rowRaw uint16) bool {
		m := NewModule(p, testGeometry(), 3, WithScheme(mapping.Direct{}))
		row := int(rowRaw) % m.Geometry().RowsPerBank
		image := make([]byte, m.Geometry().RowBytes)
		s := rng.New(seed)
		for i := range image {
			image[i] = byte(s.Intn(256))
		}
		at := PS(0)
		if err := m.Activate(at, 0, row); err != nil {
			return false
		}
		at += NSToPS(physics.TRCDNominalNS)
		if err := m.WriteRow(at, 0, row, image); err != nil {
			return false
		}
		at += NSToPS(physics.TRASNominalNS)
		if err := m.Precharge(at, 0); err != nil {
			return false
		}
		at += NSToPS(physics.TRPNominalNS)
		if err := m.Activate(at, 0, row); err != nil {
			return false
		}
		at += NSToPS(physics.TRCDNominalNS * 2) // generous timing
		for col := 0; col < m.Geometry().Columns(); col++ {
			d, err := m.Read(at, 0, col)
			if err != nil {
				return false
			}
			for i, b := range d {
				if b != image[col*BurstBytes+i] {
					return false
				}
			}
			at += NSToPS(5)
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickHammerMonotonicity: for any victim and hammer counts a < b, the
// observed flip count at b is at least the count at a (physical damage
// accumulates).
func TestQuickHammerMonotonicity(t *testing.T) {
	p, _ := physics.ProfileByName("B0")
	f := func(rowRaw uint16, aRaw, bRaw uint32) bool {
		row := 100 + int(rowRaw)%400
		a := int(aRaw % 300_000)
		b := a + int(bRaw%300_000)
		flipsAt := func(hc int) int {
			m := NewModule(p, testGeometry(), 9, WithScheme(mapping.Direct{}))
			at := PS(0)
			init := func(r int, fill byte) {
				_ = m.Activate(at, 0, r)
				at += NSToPS(14)
				img := make([]byte, m.Geometry().RowBytes)
				for i := range img {
					img[i] = fill
				}
				_ = m.WriteRow(at, 0, r, img)
				at += NSToPS(35)
				_ = m.Precharge(at, 0)
				at += NSToPS(14)
			}
			init(row, 0xFF)
			init(row-1, 0x00)
			init(row+1, 0x00)
			_ = m.ActivateMany(at, 0, row-1, hc)
			_ = m.ActivateMany(m.Now(), 0, row+1, hc)
			at = m.Now()
			_ = m.Activate(at, 0, row)
			at += NSToPS(30)
			flips := 0
			for col := 0; col < m.Geometry().Columns(); col++ {
				d, err := m.Read(at, 0, col)
				if err != nil {
					return -1
				}
				for _, v := range d {
					x := v ^ 0xFF
					for x != 0 {
						x &= x - 1
						flips++
					}
				}
				at += NSToPS(5)
			}
			return flips
		}
		fa, fb := flipsAt(a), flipsAt(b)
		return fa >= 0 && fb >= fa
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// rowGeometry is the test geometry with rows of rowBytes (8, 16 and 128
// column bursts for 512, 1024 and 8192 bytes).
func rowGeometry(rowBytes int) physics.Geometry {
	g := testGeometry()
	g.RowBytes = rowBytes
	return g
}

// twinModules builds two indistinguishable modules: one reads whole rows,
// the other the same rows column by column.
func twinModules(t *testing.T, name string, rowBytes int) (whole, perCol *Module) {
	t.Helper()
	p, ok := physics.ProfileByName(name)
	if !ok {
		t.Fatalf("profile %s missing", name)
	}
	g := rowGeometry(rowBytes)
	return NewModule(p, g, 5, WithScheme(mapping.Direct{})), NewModule(p, g, 5, WithScheme(mapping.Direct{}))
}

// referenceRead is the definition of one column burst, independent of the
// module's read path: every row-level quantity recomputed for the one
// column from the device model's single-column functions, and the row's
// whole flip lists filtered down to the column. A violated column requirement always flips
// at least one bit, which catches a tRCD skip bound that is not exact.
func referenceRead(tb testing.TB, m *Module, t PS, bankIdx, col int) []byte {
	bk := &m.banks[bankIdx]
	phys := bk.openRow
	rs := bk.row(phys)
	out := make([]byte, BurstBytes)
	if rs.data != nil {
		copy(out, rs.data[col*BurstBytes:(col+1)*BurstBytes])
	}
	base := int32(col * BurstBytes * 8)
	apply := func(positions []int32) {
		for _, pos := range positions {
			if rel := pos - base; rel >= 0 && rel < BurstBytes*8 {
				out[rel/8] ^= 1 << uint(rel%8)
			}
		}
	}
	model := m.model
	if hcEq := rs.doubleSidedEquivalent(); hcEq > 0 {
		if n := model.HammerFlipCount(bankIdx, phys, m.dominantPattern(rs), m.vpp, hcEq, m.tempC, rs.writeEpoch); n > 0 {
			apply(model.HammerFlipPositions(bankIdx, phys, n))
		}
	}
	if rs.data != nil {
		elapsedMS := float64(t-rs.lastWrite) / float64(PSPerMS)
		apply(model.RetentionFlipPositions(bankIdx, phys, m.vpp, elapsedMS, m.tempC, rs.writeEpoch))
	}
	trcdNS := float64(t-bk.openedAt) / float64(PSPerNS)
	if req := model.ColumnTRCDReqNS(bankIdx, phys, col, m.vpp, rs.writeEpoch); trcdNS < req {
		flips := model.TRCDFlipPositions(bankIdx, phys, col, trcdNS, m.vpp, rs.writeEpoch)
		if len(flips) == 0 {
			tb.Fatalf("col %d read at %v ns, below its %v ns requirement, flipped nothing", col, trcdNS, req)
		}
		apply(flips)
	}
	return out
}

// compareRowRead reads the open row of bank whole on one twin and column by
// column (at the same times) on the other, checks both against the
// reference read and each other, and returns the row image.
func compareRowRead(t *testing.T, whole, perCol *Module, t0, step PS, bank int) []byte {
	t.Helper()
	cols := whole.Geometry().Columns()
	want := make([]byte, 0, cols*BurstBytes)
	ref := make([]byte, 0, cols*BurstBytes)
	for c := 0; c < cols; c++ {
		at := t0 + PS(c)*step
		ref = append(ref, referenceRead(t, perCol, at, bank, c)...)
		d, err := perCol.Read(at, bank, c)
		if err != nil {
			t.Fatalf("Read col %d: %v", c, err)
		}
		want = append(want, d...)
	}
	got, err := whole.ReadRow(t0, step, bank)
	if err != nil {
		t.Fatalf("ReadRow: %v", err)
	}
	if !bytes.Equal(want, ref) {
		t.Fatalf("per-column Read differs from the reference read at byte %d", firstDiff(want, ref))
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ReadRow differs from per-column Reads at byte %d (t0 %d, step %d)", firstDiff(got, want), t0, step)
	}
	if whole.Now() != perCol.Now() {
		t.Fatalf("device time after ReadRow %d, after per-column Reads %d", whole.Now(), perCol.Now())
	}
	return got
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// both applies one command to each twin; the two must agree on failure.
func both(t *testing.T, whole, perCol *Module, cmd func(m *Module) error) {
	t.Helper()
	errW, errC := cmd(whole), cmd(perCol)
	if (errW == nil) != (errC == nil) {
		t.Fatalf("twins disagree: %v vs %v", errW, errC)
	}
}

// TestReadRowMatchesPerColumnReads is the differential test of the
// whole-row read: twin modules at 8, 16 and 128 columns per row run the
// same randomized command sequences — writes, bursts, hammering, waits,
// refreshes, voltage and temperature changes — and every read of a row
// returns the same bytes and leaves the same device time whether the row is
// read whole or column by column, and both match the reference read.
// Activation latencies span violated tRCD, the bound-skip edge and the safe
// read latency; column steps include zero.
func TestReadRowMatchesPerColumnReads(t *testing.T) {
	for _, rowBytes := range []int{512, 1024, 8192} {
		for i, name := range []string{"B3", "B6", "A0"} {
			t.Run(fmt.Sprintf("%s/%dcols", name, rowBytes/BurstBytes), func(t *testing.T) {
				whole, perCol := twinModules(t, name, rowBytes)
				s := rng.New(uint64(rowBytes + i))
				const bank = 1
				rows := []int{100, 101, 102, 103, 104}
				at := PS(0)
				reads, dirty := 0, 0
				for op := 0; op < 200; op++ {
					at += NSToPS(1 + float64(s.Intn(50)))
					row := rows[s.Intn(len(rows))]
					switch min(s.Intn(9), 6) {
					case 0: // full-row write
						img := make([]byte, rowBytes)
						img[0] = pattern.All()[s.Intn(6)].Byte()
						for j := 1; j < len(img); j++ {
							img[j] = img[0] ^ byte(s.Intn(2))
						}
						both(t, whole, perCol, func(m *Module) error { return m.Activate(at, bank, row) })
						at += NSToPS(14)
						both(t, whole, perCol, func(m *Module) error { return m.WriteRow(at, bank, row, img) })
						at += NSToPS(35)
						both(t, whole, perCol, func(m *Module) error { return m.Precharge(at, bank) })
					case 1: // one column burst
						burst := make([]byte, BurstBytes)
						for j := range burst {
							burst[j] = byte(s.Intn(256))
						}
						col := s.Intn(rowBytes / BurstBytes)
						both(t, whole, perCol, func(m *Module) error { return m.Activate(at, bank, row) })
						at += NSToPS(14)
						both(t, whole, perCol, func(m *Module) error { return m.Write(at, bank, col, burst) })
						at += NSToPS(35)
						both(t, whole, perCol, func(m *Module) error { return m.Precharge(at, bank) })
					case 2: // hammer
						count := s.Intn(400_000)
						both(t, whole, perCol, func(m *Module) error { return m.ActivateMany(at, bank, row, count) })
						at = whole.Now()
					case 3: // unrefreshed wait, from microseconds to tens of seconds
						at += MSToPS([]float64{0.001, 64, 300, 2000, 20000}[s.Intn(5)] * (0.5 + s.Float64()))
						both(t, whole, perCol, func(m *Module) error { return m.Wait(at) })
					case 4: // operating point
						vmin := whole.Profile().VPPMin
						v := vmin + (physics.VPPNominal-vmin)*s.Float64()
						temp := []float64{physics.RowHammerTestTempC, physics.RetentionTestTempC}[s.Intn(2)]
						both(t, whole, perCol, func(m *Module) error { m.SetVPP(v); m.SetTemperature(temp); return nil })
					case 5:
						both(t, whole, perCol, func(m *Module) error { return m.Refresh(at) })
					case 6: // read the row back (a third of all commands)
						both(t, whole, perCol, func(m *Module) error { return m.Activate(at, bank, row) })
						open := at
						rt := whole.Model().RowTRCD(bank, row, whole.VPP(), whole.banks[bank].row(row).writeEpoch)
						edge := NSToPS(rt.SafeNS())
						trcd := []PS{NSToPS(1.5 * float64(1+s.Intn(10))), NSToPS(30), edge - 1, edge, edge + 1}[s.Intn(5)]
						step := []PS{0, NSToPS(1.5), NSToPS(5)}[s.Intn(3)]
						got := compareRowRead(t, whole, perCol, open+trcd, step, bank)
						if rs := whole.banks[bank].row(row); rs.data != nil && !bytes.Equal(got, rs.data) {
							dirty++
						}
						reads++
						at = whole.Now() + NSToPS(5)
						both(t, whole, perCol, func(m *Module) error { return m.Precharge(at, bank) })
					}
				}
				if dirty == 0 {
					t.Errorf("none of %d reads returned flipped bits", reads)
				}
			})
		}
	}
}

// TestReadRowTRCDBoundSkipEdge reads a tRCD-failing module's row at its
// VPPmin at every latency around the bound past which per-column tRCD work
// is skipped: just below it every column is still judged, at and above it
// none is, and both sides match per-column reads. A violated read must
// actually flip bits, so the comparison is not between two clean rows.
func TestReadRowTRCDBoundSkipEdge(t *testing.T) {
	for _, rowBytes := range []int{512, 1024, 8192} {
		whole, perCol := twinModules(t, "B3", rowBytes)
		const bank, row = 0, 300
		for _, m := range []*Module{whole, perCol} {
			m.SetVPP(m.Profile().VPPMin)
		}
		at := initRow(t, whole, 0, bank, row, 0xAA)
		initRow(t, perCol, 0, bank, row, 0xAA)
		rt := whole.Model().RowTRCD(bank, row, whole.VPP(), 1)
		edge := NSToPS(rt.SafeNS())
		violated := NSToPS(rt.SafeNS() - 6)
		for _, trcd := range []PS{violated, edge - 2, edge - 1, edge, edge + 1, edge + 2} {
			both(t, whole, perCol, func(m *Module) error { return m.Activate(at, bank, row) })
			got := compareRowRead(t, whole, perCol, at+trcd, NSToPS(5), bank)
			if trcd == violated && countFlips(got, 0xAA) == 0 {
				t.Errorf("%d cols: a read %.1f ns below the bound flipped nothing", rowBytes/BurstBytes, 6.0)
			}
			at = whole.Now() + NSToPS(50)
			both(t, whole, perCol, func(m *Module) error { return m.Precharge(at, bank) })
			at += NSToPS(15)
		}
	}
}

// TestReadRowRetentionCountStepsWithinRead times a read so the row's bulk
// retention count steps between its first and last column — found by
// bisecting the wait through the Model() hook — so the whole-row read must
// judge each column at its own time.
func TestReadRowRetentionCountStepsWithinRead(t *testing.T) {
	for _, rowBytes := range []int{512, 1024, 8192} {
		whole, perCol := twinModules(t, "C0", rowBytes)
		const bank, row = 0, 200
		for _, m := range []*Module{whole, perCol} {
			m.SetTemperature(physics.RetentionTestTempC)
		}
		written := initRow(t, whole, 0, bank, row, 0xFF)
		initRow(t, perCol, 0, bank, row, 0xFF)
		lastWrite := whole.banks[bank].row(row).lastWrite
		ret := whole.Model().RowRetention(bank, row, whole.VPP(), whole.Temperature(), 1)
		count := func(d PS) int { return ret.BulkCount(float64(d) / float64(PSPerMS)) }

		// Bisect the unrefreshed time d at which the count first exceeds
		// its value after 4 s.
		lo, hi := MSToPS(4000), MSToPS(64000)
		c0 := count(lo)
		if count(hi) == c0 {
			t.Fatalf("bulk count flat between 4 s and 64 s")
		}
		for hi-lo > 1 {
			if mid := lo + (hi-lo)/2; count(mid) > c0 {
				hi = mid
			} else {
				lo = mid
			}
		}
		step := NSToPS(5)
		span := PS(whole.Geometry().Columns()-1) * step
		first := hi - span/2
		if count(first) == count(first+span) {
			t.Fatalf("%d cols: count does not step within the read", rowBytes/BurstBytes)
		}
		t0 := lastWrite + first
		open := t0 - NSToPS(30)
		if open < written {
			t.Fatal("read lands before the write")
		}
		both(t, whole, perCol, func(m *Module) error { return m.Activate(open, bank, row) })
		got := compareRowRead(t, whole, perCol, t0, step, bank)
		if countFlips(got, 0xFF) == 0 {
			t.Errorf("%d cols: no retention flips after %d ms", rowBytes/BurstBytes, first/PSPerMS)
		}
	}
}

// weakRow returns a row of m that carries engineered weak cells.
func weakRow(t *testing.T, m *Module, bank int) int {
	t.Helper()
	for row := 10; row < m.Geometry().RowsPerBank; row++ {
		if m.Model().GroundTruthWeakCells(bank, row) > 0 {
			return row
		}
	}
	t.Fatal("no weak-cell row")
	return -1
}

// bisect returns the smallest d in (lo, hi] with pred(d), given that
// pred(lo) is false, pred(hi) is true and pred is monotone.
func bisect(t *testing.T, lo, hi PS, pred func(PS) bool) PS {
	t.Helper()
	if pred(lo) || !pred(hi) {
		t.Fatalf("bisect: no change between %d and %d ps", lo, hi)
	}
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; pred(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// TestReadRowWeakCells reads weak-cell rows of a retention-failing module
// with each read timed through the Model() hook so that a weak cell's own
// column is read one picosecond before and exactly at its failure time (it
// must flip in the second read only), and so that the bulk count passes the
// weak cell's rank in the retention order exactly as its column is read:
// earlier columns see it as a weak failure only, its column as a weak and a
// bulk failure, and it must flip once, not twice.
func TestReadRowWeakCells(t *testing.T) {
	for _, rowBytes := range []int{512, 1024, 8192} {
		whole, perCol := twinModules(t, "B6", rowBytes)
		const bank = 0
		row := weakRow(t, whole, bank)
		for _, m := range []*Module{whole, perCol} {
			m.SetVPP(m.Profile().VPPMin)
			m.SetTemperature(physics.RetentionTestTempC)
		}
		at, step := PS(0), NSToPS(5)
		ms := func(d PS) float64 { return float64(d) / float64(PSPerMS) }
		// rewrite re-initializes the row on both twins and returns its
		// retention state for the new write epoch.
		rewrite := func() physics.RowRetention {
			next := initRow(t, whole, at, bank, row, 0x00)
			initRow(t, perCol, at, bank, row, 0x00)
			at = next
			rs := whole.banks[bank].row(row)
			return whole.Model().RowRetention(bank, row, whole.VPP(), whole.Temperature(), rs.writeEpoch)
		}
		// flippedAt reads the row with the column holding pos read d after
		// the write, and reports whether pos reads flipped.
		flippedAt := func(d PS, pos int32) bool {
			t0 := whole.banks[bank].row(row).lastWrite + d - PS(int(pos)/(BurstBytes*8))*step
			both(t, whole, perCol, func(m *Module) error { return m.Activate(t0-NSToPS(30), bank, row) })
			got := compareRowRead(t, whole, perCol, t0, step, bank)
			at = whole.Now() + NSToPS(5)
			both(t, whole, perCol, func(m *Module) error { return m.Precharge(at, bank) })
			at += NSToPS(15)
			return got[pos/8]&(1<<uint(pos%8)) != 0
		}

		for _, before := range []bool{true, false} {
			ret := rewrite()
			d := bisect(t, 1, MSToPS(4000), func(d PS) bool { return ret.WeakFlipped(0, ms(d), ret.BulkCount(ms(d))) })
			if before {
				d--
			}
			if pos := ret.WeakPos(0); flippedAt(d, pos) == before {
				t.Errorf("%d cols: weak cell at bit %d not judged at its own column's time (read %d ps from failure)", rowBytes/BurstBytes, pos, d)
			}
		}

		ret := rewrite()
		long := MSToPS(512000)
		bulk := ret.BulkPositions(ret.BulkCount(ms(long)))
		w, rank := -1, -1
		for i := 0; i < ret.WeakCells() && w < 0; i++ {
			for r, p := range bulk {
				if p == ret.WeakPos(i) && int(p)/(BurstBytes*8) > 0 {
					w, rank = i, r
					break
				}
			}
		}
		if w < 0 {
			t.Fatalf("%d cols: no weak cell past column 0 becomes a bulk failure", rowBytes/BurstBytes)
		}
		d := bisect(t, 0, long, func(d PS) bool { return ret.BulkCount(ms(d)) > rank })
		if pos := ret.WeakPos(w); !flippedAt(d, pos) {
			t.Errorf("%d cols: weak cell at bit %d, failed as weak and bulk, does not read flipped once", rowBytes/BurstBytes, pos)
		}
	}
}

// TestReadRowHammerAndRetentionOnOneBit hammers a row hard and lets it age,
// so that some bit is both a RowHammer and a retention flip: the two flips
// cancel (the bit reads as written) in the whole-row read as in per-column
// reads.
func TestReadRowHammerAndRetentionOnOneBit(t *testing.T) {
	for _, rowBytes := range []int{512, 1024, 8192} {
		whole, perCol := twinModules(t, "B3", rowBytes)
		const bank, row = 0, 400
		for _, m := range []*Module{whole, perCol} {
			m.SetTemperature(physics.RetentionTestTempC)
		}
		at := initRow(t, whole, 0, bank, row, 0x55)
		initRow(t, perCol, 0, bank, row, 0x55)
		for _, agg := range []int{row - 1, row + 1} {
			both(t, whole, perCol, func(m *Module) error { return m.ActivateMany(at, bank, agg, 2_000_000) })
			at = whole.Now()
		}
		at += MSToPS(60000)
		both(t, whole, perCol, func(m *Module) error { return m.Activate(at, bank, row) })
		t0 := at + NSToPS(30)

		rs := whole.banks[bank].row(row)
		model := whole.Model()
		n := model.HammerFlipCount(bank, row, whole.dominantPattern(rs), whole.VPP(), rs.doubleSidedEquivalent(), whole.Temperature(), rs.writeEpoch)
		hammered := map[int32]bool{}
		for _, p := range model.HammerFlipPositions(bank, row, n) {
			hammered[p] = true
		}
		shared := int32(-1)
		for _, p := range model.RetentionFlipPositions(bank, row, whole.VPP(), float64(t0-rs.lastWrite)/float64(PSPerMS), whole.Temperature(), rs.writeEpoch) {
			if hammered[p] {
				shared = p
				break
			}
		}
		if shared < 0 {
			t.Fatalf("%d cols: no bit is both a hammer and a retention flip", rowBytes/BurstBytes)
		}
		got := compareRowRead(t, whole, perCol, t0, NSToPS(5), bank)
		if (got[shared/8]^0x55)&(1<<uint(shared%8)) != 0 {
			t.Errorf("%d cols: bit %d flipped by both mechanisms reads inverted", rowBytes/BurstBytes, shared)
		}
	}
}

// TestReadRowAllocsIndependentOfColumns: a whole-row read at the safe
// latency allocates the same at 16 and at 128 columns per row — the row
// image and the row-level resolution, nothing per column.
func TestReadRowAllocsIndependentOfColumns(t *testing.T) {
	allocs := map[int]float64{}
	for _, rowBytes := range []int{1024, 8192} {
		m, _ := twinModules(t, "B3", rowBytes)
		const bank, row = 0, 500
		at := initRow(t, m, 0, bank, row, 0xFF)
		if err := m.ActivateMany(at, bank, row-1, 300_000); err != nil {
			t.Fatal(err)
		}
		at = m.Now() + MSToPS(64)
		if err := m.Activate(at, bank, row); err != nil {
			t.Fatal(err)
		}
		at += NSToPS(30)
		if _, err := m.ReadRow(at, NSToPS(5), bank); err != nil { // warm the row's cached permutations
			t.Fatal(err)
		}
		allocs[rowBytes] = testing.AllocsPerRun(50, func() {
			at = m.Now() + NSToPS(5)
			if _, err := m.ReadRow(at, NSToPS(5), bank); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[1024] != allocs[8192] {
		t.Errorf("ReadRow allocations grow with columns: %.1f at 16, %.1f at 128", allocs[1024], allocs[8192])
	}
}

// TestReadRowRejectsNegativeStep: bursts cannot be issued back in time.
func TestReadRowRejectsNegativeStep(t *testing.T) {
	m := newTestModule(t, "B3")
	if err := m.Activate(0, 0, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadRow(NSToPS(30), -1, 0); !errors.Is(err, ErrTimeRegression) {
		t.Errorf("negative step: %v, want ErrTimeRegression", err)
	}
}
