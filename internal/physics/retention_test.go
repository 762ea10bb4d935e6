package physics

import (
	"math"
	"testing"
)

func TestRetentionNoFlipsBelow64ms(t *testing.T) {
	// The Fig. 10a x-axis starts at 64 ms: no flips at smaller windows at
	// any VPP level for any module.
	for _, name := range []string{"A0", "B6", "C5", "B3"} {
		m := newTestModel(t, name)
		p := m.Profile()
		for _, v := range []float64{2.5, (2.5 + p.VPPMin) / 2, p.VPPMin} {
			for _, win := range []float64{16, 32} {
				for row := 0; row < 200; row++ {
					if flips := m.RetentionFlipPositions(0, row, v, win, RetentionTestTempC, 0); len(flips) != 0 {
						t.Fatalf("%s row %d: %d flips at %vms, VPP=%v", name, row, len(flips), win, v)
					}
				}
			}
		}
	}
}

func TestRetentionCleanModulesPass64ms(t *testing.T) {
	// 23 of 30 modules have no retention flips at the nominal 64 ms window
	// even at VPPmin (Obsv. 13). Check a sample of clean modules.
	for _, name := range []string{"A0", "A5", "B3", "C0"} {
		m := newTestModel(t, name)
		p := m.Profile()
		for row := 0; row < 400; row++ {
			if flips := m.RetentionFlipPositions(0, row, p.VPPMin, 64, RetentionTestTempC, 0); len(flips) != 0 {
				t.Errorf("%s row %d: %d flips at 64ms/VPPmin; module should be clean", name, row, len(flips))
			}
		}
	}
}

func TestRetentionFailingModulesFlipAt64ms(t *testing.T) {
	// B6/B8/B9 and C1/C3/C5/C9 exhibit flips at 64 ms when at VPPmin.
	for _, name := range []string{"B6", "B8", "C5"} {
		m := newTestModel(t, name)
		p := m.Profile()
		total := 0
		for row := 0; row < 3000; row++ {
			total += len(m.RetentionFlipPositions(0, row, p.VPPMin, 64, RetentionTestTempC, 0))
		}
		if total == 0 {
			t.Errorf("%s: no retention flips at 64ms/VPPmin; module should fail", name)
		}
	}
}

func TestRetentionFailingModulesCleanAtNominalVPP(t *testing.T) {
	// Even failing modules are clean at the nominal window under nominal VPP.
	m := newTestModel(t, "B6")
	for row := 0; row < 2000; row++ {
		if flips := m.RetentionFlipPositions(0, row, 2.5, 64, RetentionTestTempC, 0); len(flips) != 0 {
			t.Fatalf("B6 row %d flips at 64ms under nominal VPP", row)
		}
	}
}

func TestRetentionBERGrowsWithWindow(t *testing.T) {
	m := newTestModel(t, "C0")
	prev := -1
	for _, win := range []float64{64, 256, 1024, 4096, 16384} {
		total := 0
		for row := 0; row < 100; row++ {
			total += len(m.RetentionFlipPositions(0, row, 2.5, win, RetentionTestTempC, 0))
		}
		if total < prev {
			t.Fatalf("retention flips decreased with window: %d after %d at %vms", total, prev, win)
		}
		prev = total
	}
	if prev == 0 {
		t.Error("no retention flips even at 16s")
	}
}

func TestRetentionBERGrowsAsVPPDrops(t *testing.T) {
	// Obsv. 12: more cells fail at reduced VPP. Compare the 4s BER at
	// nominal and VPPmin.
	m := newTestModel(t, "C0")
	p := m.Profile()
	count := func(v float64) int {
		total := 0
		for row := 0; row < 200; row++ {
			total += len(m.RetentionFlipPositions(0, row, v, 4000, RetentionTestTempC, 0))
		}
		return total
	}
	nom, low := count(2.5), count(p.VPPMin)
	if low <= nom {
		t.Errorf("4s retention flips: nominal %d, VPPmin %d; want increase", nom, low)
	}
}

func TestRetention4sAnchors(t *testing.T) {
	// Mean BER at tREFW=4s should approximate the Fig. 10b anchors:
	// 0.3%/0.2%/1.4% at 2.5V for Mfrs A/B/C.
	anchors := map[string]float64{"A3": 0.003, "B0": 0.002, "C0": 0.014}
	for name, want := range anchors {
		m := newTestModel(t, name)
		n := float64(m.Geometry().RowBits())
		var sum float64
		const rows = 300
		for row := 0; row < rows; row++ {
			sum += float64(len(m.RetentionFlipPositions(0, row, 2.5, 4000, RetentionTestTempC, 0))) / n
		}
		got := sum / rows
		if got < want/2.5 || got > want*2.5 {
			t.Errorf("%s: 4s retention BER = %v, want within 2.5x of %v", name, got, want)
		}
	}
}

func TestRetentionTemperatureAcceleration(t *testing.T) {
	m := newTestModel(t, "C0")
	count := func(temp float64) int {
		total := 0
		for row := 0; row < 150; row++ {
			total += len(m.RetentionFlipPositions(0, row, 2.5, 2000, temp, 0))
		}
		return total
	}
	cold, hot := count(50), count(85)
	if hot <= cold {
		t.Errorf("retention flips at 85C (%d) not above 50C (%d)", hot, cold)
	}
}

func TestRetentionPositionsUnique(t *testing.T) {
	m := newTestModel(t, "B6")
	p := m.Profile()
	for row := 0; row < 300; row++ {
		flips := m.RetentionFlipPositions(0, row, p.VPPMin, 8000, RetentionTestTempC, 0)
		seen := map[int32]bool{}
		for _, pos := range flips {
			if pos < 0 || int(pos) >= m.Geometry().RowBits() {
				t.Fatalf("row %d: position %d out of range", row, pos)
			}
			if seen[pos] {
				t.Fatalf("row %d: duplicate flip position %d", row, pos)
			}
			seen[pos] = true
		}
	}
}

func TestWeakCellsOnePerWord(t *testing.T) {
	// The engineered weak-cell tiers must place at most one cell per 64-bit
	// word so the smallest failing window stays SECDED-correctable.
	m := newTestModel(t, "B6")
	p := m.Profile()
	rowsWithWeak := 0
	for row := 0; row < 2000; row++ {
		flips := m.RetentionFlipPositions(0, row, p.VPPMin, 64, RetentionTestTempC, 0)
		if len(flips) == 0 {
			continue
		}
		rowsWithWeak++
		words := map[int32]int{}
		for _, pos := range flips {
			words[pos/64]++
		}
		for w, c := range words {
			if c > 1 {
				t.Fatalf("row %d word %d has %d flips at the smallest failing window", row, w, c)
			}
		}
	}
	if rowsWithWeak == 0 {
		t.Fatal("no weak rows found in B6")
	}
	// Mfr B: ~15.5% of rows carry the 4-word tier.
	frac := float64(rowsWithWeak) / 2000
	if frac < 0.10 || frac > 0.22 {
		t.Errorf("B6 weak-row fraction at 64ms = %v, want ~0.155", frac)
	}
}

func TestWeakRowFractionMfrC(t *testing.T) {
	m := newTestModel(t, "C5")
	p := m.Profile()
	rowsWithWeak := 0
	const rows = 6000
	for row := 0; row < rows; row++ {
		if len(m.RetentionFlipPositions(0, row, p.VPPMin, 64, RetentionTestTempC, 0)) > 0 {
			rowsWithWeak++
		}
	}
	frac := float64(rowsWithWeak) / rows
	if frac < 0.0003 || frac > 0.008 {
		t.Errorf("C5 weak-row fraction at 64ms = %v, want ~0.002", frac)
	}
}

func TestTier128RowsAppearAt128msOnly(t *testing.T) {
	// Mfr B: ~4.7% of rows gain 2 erroneous words at 128 ms (not at 64 ms).
	m := newTestModel(t, "B3") // clean at 64ms
	p := m.Profile()
	const rows = 1500
	at128 := 0
	for row := 0; row < rows; row++ {
		f64 := m.RetentionFlipPositions(0, row, p.VPPMin, 64, RetentionTestTempC, 0)
		if len(f64) != 0 {
			t.Fatalf("B3 row %d flips at 64ms; should be clean", row)
		}
		f128 := m.RetentionFlipPositions(0, row, p.VPPMin, 128, RetentionTestTempC, 0)
		if len(f128) > 0 {
			at128++
			// Weak-tier rows carry exactly 2 flips; an occasional extreme
			// bulk cell may add a third or appear alone.
			if len(f128) > 3 {
				t.Errorf("B3 row %d: %d flips at 128ms, want <= 3", row, len(f128))
			}
		}
	}
	frac := float64(at128) / rows
	if frac < 0.02 || frac > 0.10 {
		t.Errorf("B3 128ms weak-row fraction = %v, want ~0.047", frac)
	}
}

func TestGroundTruthWeakCellsAccessor(t *testing.T) {
	m := newTestModel(t, "B6")
	any := false
	for row := 0; row < 200 && !any; row++ {
		if m.GroundTruthWeakCells(0, row) > 0 {
			any = true
		}
	}
	if !any {
		t.Error("no weak cells sampled in 200 B6 rows")
	}
}

func TestRetentionZeroElapsed(t *testing.T) {
	m := newTestModel(t, "C0")
	if flips := m.RetentionFlipPositions(0, 0, 2.5, 0, 80, 0); len(flips) != 0 {
		t.Error("zero elapsed time produced flips")
	}
	if flips := m.RetentionFlipPositions(0, 0, 1.0, 1e6, 80, 0); len(flips) != 0 {
		t.Error("module below VPPmin should not report flips")
	}
}

func TestRetentionRhoMonotone(t *testing.T) {
	p, _ := ProfileByName("C0")
	m := NewDeviceModel(p, testGeometry(), 9)
	prev := math.Inf(1)
	for v := 2.5; v >= 1.4; v -= 0.1 {
		r := m.retention.rho(v)
		if r > prev+1e-12 {
			t.Fatalf("rho increased as VPP dropped at %v", v)
		}
		if r <= 0 || r > 1 {
			t.Fatalf("rho(%v) = %v out of (0,1]", v, r)
		}
		prev = r
	}
}

// TestRetentionFlipPositionsDedupWeakCells checks the weak-cell dedup
// against the set-based definition: the flips are the first BulkCount cells
// of the row's retention order plus each failed weak cell not already among
// them, each exactly once. Long waits make weak cells bulk failures too.
func TestRetentionFlipPositionsDedupWeakCells(t *testing.T) {
	m := newTestModel(t, "B6")
	v := m.Profile().VPPMin
	checked, overlaps := 0, 0
	for row := 0; row < 400; row++ {
		if m.GroundTruthWeakCells(0, row) == 0 {
			continue
		}
		for _, ms := range []float64{32, 64, 128, 4000, 64000, 512000} {
			r := m.RowRetention(0, row, v, 80, 1)
			count := r.BulkCount(ms)
			want := map[int32]bool{}
			for _, p := range r.BulkPositions(count) {
				want[p] = true
			}
			rp := m.row(0, row)
			for _, c := range rp.weak {
				if !m.retention.weakFailed(c, ms, v, 80) {
					continue
				}
				if want[c.pos] {
					overlaps++
				}
				want[c.pos] = true
			}
			got := m.RetentionFlipPositions(0, row, v, ms, 80, 1)
			seen := map[int32]bool{}
			for _, p := range got {
				if seen[p] || !want[p] {
					t.Fatalf("row %d at %v ms: position %d repeated or not a failure", row, ms, p)
				}
				seen[p] = true
			}
			if len(seen) != len(want) {
				t.Fatalf("row %d at %v ms: %d flips, want %d", row, ms, len(seen), len(want))
			}
			checked++
		}
	}
	if checked == 0 || overlaps == 0 {
		t.Errorf("checked %d reads with %d weak/bulk overlaps; want both > 0", checked, overlaps)
	}
}
