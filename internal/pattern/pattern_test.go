package pattern

import (
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func TestAllReturnsSixPatterns(t *testing.T) {
	ps := All()
	if len(ps) != 6 {
		t.Fatalf("All() returned %d patterns, want 6", len(ps))
	}
	seen := map[Kind]bool{}
	for _, p := range ps {
		if !p.Valid() {
			t.Errorf("All() contains invalid pattern %v", p)
		}
		if seen[p] {
			t.Errorf("All() contains duplicate %v", p)
		}
		seen[p] = true
	}
}

func TestAllReturnsFreshSlice(t *testing.T) {
	a := All()
	a[0] = Kind(99)
	if b := All(); b[0] == Kind(99) {
		t.Error("All() shares its backing array with callers")
	}
}

func TestStringNames(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{RowStripeFF, "rowstripe-0xFF"},
		{RowStripe00, "rowstripe-0x00"},
		{CheckerAA, "checker-0xAA"},
		{Checker55, "checker-0x55"},
		{ThickCC, "thick-0xCC"},
		{Thick33, "thick-0x33"},
		{Kind(0), "pattern.Kind(0)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.k), got, tt.want)
		}
	}
}

func TestZeroValueInvalid(t *testing.T) {
	var k Kind
	if k.Valid() {
		t.Error("zero Kind reports Valid()")
	}
	if !strings.Contains(k.String(), "Kind(0)") {
		t.Errorf("zero Kind String() = %q", k.String())
	}
}

func TestBytes(t *testing.T) {
	tests := []struct {
		k Kind
		b byte
	}{
		{RowStripeFF, 0xFF}, {RowStripe00, 0x00},
		{CheckerAA, 0xAA}, {Checker55, 0x55},
		{ThickCC, 0xCC}, {Thick33, 0x33},
	}
	for _, tt := range tests {
		if got := tt.k.Byte(); got != tt.b {
			t.Errorf("%v.Byte() = %#x, want %#x", tt.k, got, tt.b)
		}
	}
}

func TestInverseIsInvolution(t *testing.T) {
	for _, k := range All() {
		inv := k.Inverse()
		if inv == k {
			t.Errorf("%v is its own inverse", k)
		}
		if inv.Inverse() != k {
			t.Errorf("Inverse(Inverse(%v)) = %v", k, inv.Inverse())
		}
		if k.Byte()^inv.Byte() != 0xFF {
			t.Errorf("%v and inverse are not bitwise complements: %#x %#x",
				k, k.Byte(), inv.Byte())
		}
	}
}

func TestFill(t *testing.T) {
	buf := make([]byte, 64)
	CheckerAA.Fill(buf)
	for i, b := range buf {
		if b != 0xAA {
			t.Fatalf("Fill left byte %d = %#x", i, b)
		}
	}
}

func TestBit(t *testing.T) {
	// 0xAA = 10101010b: odd bit positions set (LSB-first indexing).
	for i := 0; i < 16; i++ {
		want := i%2 == 1
		if got := CheckerAA.Bit(i); got != want {
			t.Errorf("CheckerAA.Bit(%d) = %v, want %v", i, got, want)
		}
	}
	for i := 0; i < 8; i++ {
		if !RowStripeFF.Bit(i) {
			t.Errorf("RowStripeFF.Bit(%d) = false", i)
		}
		if RowStripe00.Bit(i) {
			t.Errorf("RowStripe00.Bit(%d) = true", i)
		}
	}
}

func TestCountMismatch(t *testing.T) {
	buf := make([]byte, 8)
	RowStripeFF.Fill(buf)
	if got := RowStripeFF.CountMismatch(buf); got != 0 {
		t.Errorf("mismatch of clean buffer = %d", got)
	}
	buf[0] = 0xFE // one bit flipped
	if got := RowStripeFF.CountMismatch(buf); got != 1 {
		t.Errorf("mismatch after 1 flip = %d", got)
	}
	buf[7] = 0x0F // four more
	if got := RowStripeFF.CountMismatch(buf); got != 5 {
		t.Errorf("mismatch after 5 flips = %d", got)
	}
}

func TestCountMismatchAgainstInverse(t *testing.T) {
	buf := make([]byte, 4)
	RowStripe00.Fill(buf)
	if got := RowStripeFF.CountMismatch(buf); got != 32 {
		t.Errorf("all-bits mismatch = %d, want 32", got)
	}
}

func TestWCDPTable(t *testing.T) {
	var tab WCDPTable
	if tab.Len() != 0 {
		t.Error("zero table not empty")
	}
	if k, ok := tab.Get(5); ok || k != RowStripeFF {
		t.Errorf("Get on empty table = %v,%v; want RowStripeFF,false", k, ok)
	}
	tab.Set(5, ThickCC)
	tab.Set(9, Checker55)
	tab.Set(5, CheckerAA) // overwrite
	if tab.Len() != 2 {
		t.Errorf("Len = %d, want 2", tab.Len())
	}
	if k, ok := tab.Get(5); !ok || k != CheckerAA {
		t.Errorf("Get(5) = %v,%v; want CheckerAA,true", k, ok)
	}
	rows := tab.Rows()
	if len(rows) != 2 {
		t.Errorf("Rows() = %v", rows)
	}
	found := map[int]bool{}
	for _, r := range rows {
		found[r] = true
	}
	if !found[5] || !found[9] {
		t.Errorf("Rows() = %v, want {5,9}", rows)
	}
}

func TestQuickFillThenCountMismatchZero(t *testing.T) {
	f := func(n uint8, pick uint8) bool {
		k := All()[int(pick)%6]
		buf := make([]byte, int(n))
		k.Fill(buf)
		return k.CountMismatch(buf) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMismatchSymmetric(t *testing.T) {
	// Mismatch count against k equals flips of buf relative to k's fill.
	f := func(data []byte, pick uint8) bool {
		k := All()[int(pick)%6]
		want := 0
		for _, b := range data {
			x := b ^ k.Byte()
			for x != 0 {
				x &= x - 1
				want++
			}
		}
		return k.CountMismatch(data) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCountMismatchWordwiseMatchesBytewise checks the word-at-a-time count
// against a byte-at-a-time one for every pattern, at every length around
// the 8-byte word (so every tail length is hit) and at a full 8 KiB row,
// with random bits flipped and random bytes written.
func TestCountMismatchWordwiseMatchesBytewise(t *testing.T) {
	bytewise := func(k Kind, got []byte) int {
		n := 0
		for _, g := range got {
			for x := g ^ k.Byte(); x != 0; x &= x - 1 {
				n++
			}
		}
		return n
	}
	r := rand.New(rand.NewPCG(1, 2))
	lengths := []int{8192}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, k := range All() {
		for _, n := range lengths {
			for trial := 0; trial < 8; trial++ {
				buf := make([]byte, n)
				k.Fill(buf)
				for f := r.IntN(2*n*8 + 1); f > 0 && n > 0; f-- {
					pos := r.IntN(n * 8)
					buf[pos/8] ^= 1 << (pos % 8)
				}
				if trial == 7 && n > 0 {
					buf[r.IntN(n)] = byte(r.IntN(256))
				}
				if got, want := k.CountMismatch(buf), bytewise(k, buf); got != want {
					t.Fatalf("%v, %d bytes: CountMismatch = %d, byte-wise count %d", k, n, got, want)
				}
			}
		}
	}
}
