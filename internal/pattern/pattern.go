// Package pattern implements the DRAM test data patterns used throughout the
// paper's methodology (§4.1 "Data Patterns"): row stripe (0xFF/0x00),
// checkerboard (0xAA/0x55), and thick checker (0xCC/0x33), each in both
// polarities, plus the bookkeeping for the per-row worst-case data pattern
// (WCDP) the experiments select at nominal VPP and reuse at reduced VPP.
package pattern

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
)

// Kind identifies one of the six canonical test data patterns.
type Kind int

// The six data patterns of §4.1. Enum starts at 1 so the zero value is
// recognizably "unset" when a WCDP table has not been populated yet.
const (
	RowStripeFF Kind = iota + 1 // 0xFF in victim row (0x00 in aggressors)
	RowStripe00                 // 0x00 in victim row (0xFF in aggressors)
	CheckerAA                   // 0xAA
	Checker55                   // 0x55
	ThickCC                     // 0xCC
	Thick33                     // 0x33
)

// All lists every canonical pattern in a stable order. Callers must not
// mutate the returned slice; it is freshly allocated on each call.
func All() []Kind {
	return []Kind{RowStripeFF, RowStripe00, CheckerAA, Checker55, ThickCC, Thick33}
}

// String returns the conventional name of the pattern.
func (k Kind) String() string {
	switch k {
	case RowStripeFF:
		return "rowstripe-0xFF"
	case RowStripe00:
		return "rowstripe-0x00"
	case CheckerAA:
		return "checker-0xAA"
	case Checker55:
		return "checker-0x55"
	case ThickCC:
		return "thick-0xCC"
	case Thick33:
		return "thick-0x33"
	default:
		return fmt.Sprintf("pattern.Kind(%d)", int(k))
	}
}

// Valid reports whether k is one of the six canonical patterns.
func (k Kind) Valid() bool {
	return k >= RowStripeFF && k <= Thick33
}

// Byte returns the fill byte this pattern writes into the victim row.
func (k Kind) Byte() byte {
	switch k {
	case RowStripeFF:
		return 0xFF
	case RowStripe00:
		return 0x00
	case CheckerAA:
		return 0xAA
	case Checker55:
		return 0x55
	case ThickCC:
		return 0xCC
	case Thick33:
		return 0x33
	default:
		return 0x00
	}
}

// Inverse returns the bitwise-inverse pattern, which Alg. 1 writes into the
// aggressor rows ("initialize_aggressor_rows(..., bitwise_inverse(WCDP))").
func (k Kind) Inverse() Kind {
	switch k {
	case RowStripeFF:
		return RowStripe00
	case RowStripe00:
		return RowStripeFF
	case CheckerAA:
		return Checker55
	case Checker55:
		return CheckerAA
	case ThickCC:
		return Thick33
	case Thick33:
		return ThickCC
	default:
		return k
	}
}

// Fill writes the victim-row byte of pattern k into every element of buf.
func (k Kind) Fill(buf []byte) {
	b := k.Byte()
	for i := range buf {
		buf[i] = b
	}
}

// Bit returns the data bit this pattern stores at the given bit offset within
// a row (offset counted LSB-first within each byte).
func (k Kind) Bit(bitOffset int) bool {
	return k.Byte()&(1<<(uint(bitOffset)%8)) != 0
}

// CountMismatch returns the number of bits in got that differ from pattern
// k's expected fill. It is the BER numerator of the paper's compare_data
// step. It compares eight bytes at a time against the fill replicated
// across a word, then the tail byte by byte.
func (k Kind) CountMismatch(got []byte) int {
	want := k.Byte()
	word := uint64(want) * 0x0101_0101_0101_0101
	n, i := 0, 0
	for ; i+8 <= len(got); i += 8 {
		n += bits.OnesCount64(binary.LittleEndian.Uint64(got[i:]) ^ word)
	}
	for ; i < len(got); i++ {
		n += bits.OnesCount8(got[i] ^ want)
	}
	return n
}

// WCDPTable records the worst-case data pattern chosen for each row of a
// DRAM bank during the nominal-VPP profiling pass (§4.2: the pattern causing
// the lowest HCfirst, tie-broken by the largest BER at 300K hammers).
// The zero value is an empty table ready for use.
type WCDPTable struct {
	byRow map[int]Kind
}

// Set records the WCDP for a row, replacing any previous choice.
func (t *WCDPTable) Set(row int, k Kind) {
	if t.byRow == nil {
		t.byRow = make(map[int]Kind)
	}
	t.byRow[row] = k
}

// Get returns the WCDP recorded for a row. If the row was never profiled it
// returns RowStripeFF — the conventionally strongest default — and false.
func (t *WCDPTable) Get(row int) (Kind, bool) {
	if t.byRow == nil {
		return RowStripeFF, false
	}
	k, ok := t.byRow[row]
	if !ok {
		return RowStripeFF, false
	}
	return k, true
}

// Len returns the number of rows with a recorded WCDP.
func (t *WCDPTable) Len() int { return len(t.byRow) }

// Rows returns the profiled row addresses in ascending order, so callers
// iterating the table inherit a deterministic walk.
func (t *WCDPTable) Rows() []int {
	rows := make([]int, 0, len(t.byRow))
	for r := range t.byRow {
		rows = append(rows, r)
	}
	sort.Ints(rows)
	return rows
}
