package dram

import (
	"fmt"
	"sort"
	"strings"
)

// content returns the row's stored content as bytes, whether it is held as
// a fill byte or a dense image, or nil for a row never written.
func (rs *rowState) content(rowBytes int) []byte {
	if !rs.written() {
		return nil
	}
	out := make([]byte, rowBytes)
	rs.copyContent(out, 0)
	return out
}

// StateString renders every piece of mutable device state — time, operating
// point, each bank's open row and refresh cursor, each tracked row's content
// (a uniform row as its bytes, so both representations render alike),
// write epoch, last write and exposure, and the TRR engine — so tests outside
// the package can compare two modules' complete state.
func (m *Module) StateString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d vpp=%v temp=%v\n", m.now, m.vpp, m.tempC)
	for i := range m.banks {
		bk := &m.banks[i]
		fmt.Fprintf(&b, "bank %d: open=%d at=%d ref=%d\n", i, bk.openRow, bk.openedAt, bk.refCursor)
		phys := make([]int, 0, len(bk.rows))
		for p := range bk.rows {
			phys = append(phys, p)
		}
		sort.Ints(phys)
		for _, p := range phys {
			rs := bk.rows[p]
			fmt.Fprintf(&b, "  row %d: epoch=%d last=%d lo=%v hi=%v d2=%v data=%x\n",
				p, rs.writeEpoch, rs.lastWrite, rs.hammerLo, rs.hammerHi, rs.hammerD2, rs.content(m.geom.RowBytes))
		}
	}
	switch e := m.trr.(type) {
	case *trrEngine:
		rows := make([]int, 0, len(e.counts))
		for r := range e.counts {
			rows = append(rows, r)
		}
		sort.Ints(rows)
		for _, r := range rows {
			fmt.Fprintf(&b, "trr %d=%d\n", r, e.counts[r])
		}
	case *samplingTRR:
		fmt.Fprintf(&b, "sampling suspect=%d armed=%v stream=%v\n", e.suspect, e.armed, *e.stream)
	}
	return b.String()
}
