package spice

import (
	"errors"
	"fmt"
	"math"
)

// Ground is the reference node; its voltage is fixed at zero.
const Ground = 0

// Circuit is a netlist under construction. The zero value is unusable; use
// NewCircuit.
type Circuit struct {
	nodeCount int
	nodeNames map[string]int
	resistors []resistor
	caps      []capacitor
	sources   []vsource
	mosfets   []mosfet
	initial   map[int]float64
}

type resistor struct {
	a, b int
	ohms float64
}

type capacitor struct {
	a, b   int
	farads float64
}

type vsource struct {
	pos, neg int
	wave     Waveform
}

type mosfet struct {
	d, g, s int
	params  MOSParams
}

// Waveform is a time-dependent source value in volts.
type Waveform interface {
	At(t float64) float64
}

// DC is a constant waveform.
type DC float64

// At implements Waveform.
func (d DC) At(float64) float64 { return float64(d) }

// PWL is a piecewise-linear waveform defined by (time, value) breakpoints in
// ascending time order; values are held outside the breakpoint range.
type PWL struct {
	Times  []float64
	Values []float64
}

// At implements Waveform.
func (p PWL) At(t float64) float64 {
	n := len(p.Times)
	if n == 0 {
		return 0
	}
	if t <= p.Times[0] {
		return p.Values[0]
	}
	if t >= p.Times[n-1] {
		return p.Values[n-1]
	}
	for i := 1; i < n; i++ {
		if t <= p.Times[i] {
			f := (t - p.Times[i-1]) / (p.Times[i] - p.Times[i-1])
			return p.Values[i-1] + f*(p.Values[i]-p.Values[i-1])
		}
	}
	return p.Values[n-1]
}

// NewCircuit returns an empty netlist.
func NewCircuit() *Circuit {
	return &Circuit{
		nodeCount: 1, // ground
		nodeNames: map[string]int{"gnd": Ground, "0": Ground},
		initial:   map[int]float64{},
	}
}

// Node returns the node id for a name, allocating it on first use.
func (c *Circuit) Node(name string) int {
	if id, ok := c.nodeNames[name]; ok {
		return id
	}
	id := c.nodeCount
	c.nodeCount++
	c.nodeNames[name] = id
	return id
}

// NumNodes returns the number of nodes including ground.
func (c *Circuit) NumNodes() int { return c.nodeCount }

// R adds a resistor between nodes a and b.
func (c *Circuit) R(a, b int, ohms float64) {
	c.resistors = append(c.resistors, resistor{a, b, ohms})
}

// C adds a capacitor between nodes a and b.
func (c *Circuit) C(a, b int, farads float64) {
	c.caps = append(c.caps, capacitor{a, b, farads})
}

// V adds a voltage source from pos to neg with the given waveform and
// returns its source index.
func (c *Circuit) V(pos, neg int, w Waveform) int {
	c.sources = append(c.sources, vsource{pos, neg, w})
	return len(c.sources) - 1
}

// MOS adds a MOSFET with the given terminals and parameters.
func (c *Circuit) MOS(drain, gate, source int, p MOSParams) {
	c.mosfets = append(c.mosfets, mosfet{drain, gate, source, p})
}

// SetInitial sets a node's initial voltage for transient analysis.
func (c *Circuit) SetInitial(node int, volts float64) {
	if node != Ground {
		c.initial[node] = volts
	}
}

// ErrSingular is returned when the MNA system cannot be solved.
var ErrSingular = errors.New("spice: singular MNA matrix")

// ErrNoConverge is returned when Newton iteration fails to converge.
var ErrNoConverge = errors.New("spice: Newton iteration did not converge")

// solveDense performs Gaussian elimination with partial pivoting in place.
// a is an n x n matrix in row-major order; b the right-hand side.
func solveDense(a []float64, b []float64, n int) error {
	if n == 6 {
		return solve6(a, b)
	}
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		max := abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := abs(a[r*n+col]); v > max {
				pivot, max = r, v
			}
		}
		if max < 1e-18 {
			return fmt.Errorf("%w (column %d)", ErrSingular, col) //detlint:ignore hotalloc error path, never taken by a solvable system
		}
		if pivot != col {
			for k := col; k < n; k++ {
				a[col*n+k], a[pivot*n+k] = a[pivot*n+k], a[col*n+k]
			}
			b[col], b[pivot] = b[pivot], b[col]
		}
		inv := 1 / a[col*n+col]
		for r := col + 1; r < n; r++ {
			f := a[r*n+col] * inv
			if f == 0 {
				continue
			}
			for k := col; k < n; k++ {
				a[r*n+k] -= f * a[col*n+k]
			}
			b[r] -= f * b[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for k := r + 1; k < n; k++ {
			sum -= a[r*n+k] * b[k]
		}
		b[r] = sum / a[r*n+r]
	}
	return nil
}

// solve6 is solveDense specialized to the reduced DRAM-cell system's n=6:
// the same partial-pivot elimination performing the identical sequence of
// float operations (so results are bit-for-bit equal to the generic path),
// but over fixed-size array views with constant loop bounds, which lets the
// compiler drop every bounds check and unroll the inner updates — this is
// the single hottest function of the Monte-Carlo campaign.
func solve6(as []float64, bs []float64) error {
	return solve6From((*[36]float64)(as), (*[6]float64)(bs), 0)
}

// solve6From runs the generic partial-pivot elimination starting at the
// given column, assuming columns before it are already eliminated. It is
// both the whole generic n=6 solve (col0 = 0) and the bit-exact
// continuation solve6Cell falls back to when a pivot search leaves the
// diagonal.
func solve6From(a *[36]float64, b *[6]float64, col0 int) error {
	const n = 6
	for col := col0; col < n; col++ {
		pivot := col
		max := abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := abs(a[r*n+col]); v > max {
				pivot, max = r, v
			}
		}
		if max < 1e-18 {
			return fmt.Errorf("%w (column %d)", ErrSingular, col) //detlint:ignore hotalloc error path, never taken by a solvable system
		}
		if pivot != col {
			for k := col; k < n; k++ {
				a[col*n+k], a[pivot*n+k] = a[pivot*n+k], a[col*n+k]
			}
			b[col], b[pivot] = b[pivot], b[col]
		}
		inv := 1 / a[col*n+col]
		for r := col + 1; r < n; r++ {
			f := a[r*n+col] * inv
			if f == 0 {
				continue
			}
			for k := col; k < n; k++ {
				a[r*n+k] -= f * a[col*n+k]
			}
			b[r] -= f * b[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for k := r + 1; k < n; k++ {
			sum -= a[r*n+k] * b[k]
		}
		b[r] = sum / a[r*n+r]
	}
	return nil
}

// cellPattern6 is the row-wise nonzero mask (bit c = column c) of the
// reduced DRAM-cell Newton matrix in reduced-index order cellC, cellN, blc,
// bls, blbc, blbs: a chain cellC–cellN–blc–bls plus the isolated half
// blbc–blbs, coupled only through the sense-amp gate terms bls↔blbs. The
// pattern has two load-bearing properties, both verified by
// TestSolve6CellMatchesGeneric: elimination in natural order produces no
// fill-in, and each column has exactly one structurally nonzero entry below
// the diagonal.
var cellPattern6 = [6]uint8{
	0b000011, // cellC: diag, cellN
	0b000111, // cellN: cellC, diag, blc
	0b001110, // blc:   cellN, diag, bls
	0b101100, // bls:   blc, diag, blbs (gate)
	0b110000, // blbc:  diag, blbs
	0b111000, // blbs:  bls (gate), blbc, diag
}

// solve6Cell is the structure-exploiting solve for matrices whose nonzero
// pattern is within cellPattern6 (the caller checks the stamps at build
// time; see reduced.cell6). It performs exactly the float operations the
// generic elimination performs on this pattern — the same pivot-search
// decisions, the same f==0 row skips, the same multiply-subtract per
// structurally nonzero entry — and omits only operations the generic path
// wastes on exact zeros: subtractions of f*0 inside skipped columns and
// dead writes to subdiagonal entries never read again. Results are
// bit-for-bit equal to solve6. Whenever a pivot search would leave the
// diagonal (never observed for the diagonally dominant cell system, but
// parameter sets are user data) or a diagonal underflows the singularity
// floor, it falls back mid-solve to the generic continuation, which is
// decision-identical because the elimination state up to that column is.
func solve6Cell(as []float64, bs []float64) error {
	a := (*[36]float64)(as)
	b := (*[6]float64)(bs)

	// Column 0: the only subdiagonal entry is (1,0).
	d := abs(a[0])
	if abs(a[6]) > d || d < 1e-18 {
		return solve6From(a, b, 0)
	}
	if f := a[6] * (1 / a[0]); f != 0 {
		a[7] -= f * a[1]
		b[1] -= f * b[0]
	}
	// Column 1: subdiagonal (2,1).
	d = abs(a[7])
	if abs(a[13]) > d || d < 1e-18 {
		return solve6From(a, b, 1)
	}
	if f := a[13] * (1 / a[7]); f != 0 {
		a[14] -= f * a[8]
		b[2] -= f * b[1]
	}
	// Column 2: subdiagonal (3,2).
	d = abs(a[14])
	if abs(a[20]) > d || d < 1e-18 {
		return solve6From(a, b, 2)
	}
	if f := a[20] * (1 / a[14]); f != 0 {
		a[21] -= f * a[15]
		b[3] -= f * b[2]
	}
	// Column 3: subdiagonal (5,3) — the sense-amp gate coupling.
	d = abs(a[21])
	if abs(a[33]) > d || d < 1e-18 {
		return solve6From(a, b, 3)
	}
	if f := a[33] * (1 / a[21]); f != 0 {
		a[35] -= f * a[23]
		b[5] -= f * b[3]
	}
	// Column 4: subdiagonal (5,4).
	d = abs(a[28])
	if abs(a[34]) > d || d < 1e-18 {
		return solve6From(a, b, 4)
	}
	if f := a[34] * (1 / a[28]); f != 0 {
		a[35] -= f * a[29]
		b[5] -= f * b[4]
	}
	// Column 5 has no subdiagonal; only the singularity floor remains.
	if abs(a[35]) < 1e-18 {
		return solve6From(a, b, 5)
	}

	// Back-substitution over the structural upper triangle.
	b[5] = b[5] / a[35]
	b[4] = (b[4] - a[29]*b[5]) / a[28]
	b[3] = (b[3] - a[23]*b[5]) / a[21]
	b[2] = (b[2] - a[15]*b[3]) / a[14]
	b[1] = (b[1] - a[8]*b[2]) / a[7]
	b[0] = (b[0] - a[1]*b[1]) / a[0]
	return nil
}

// abs is math.Abs: the intrinsified bit-clear compiles branchless, which
// matters in the pivot guards and convergence checks it saturates. (It maps
// -0 to +0 where the branching form would keep -0; every caller only
// compares the result, and -0 == +0, so behavior is identical.)
func abs(x float64) float64 {
	return math.Abs(x)
}

// cell6Iter performs one complete Newton iteration of the cell-pattern
// system entirely in stack arrays: statics load, MOSFET linearizations, the
// structural elimination of solve6Cell, back-substitution, and the damped
// iterate update, with no heap matrix between them. The float operations
// replicate, in order, exactly what the copy-stamp-solve-damp sequence of
// the generic path performs (see solve6Cell for the zero-operation
// accounting), so the updated iterate in newt and the returned convergence
// norm are bit-for-bit identical. When a pivot guard trips it reports ok =
// false WITHOUT writing anything: all partial work lived in the stack
// arrays, so the caller redoes the iteration through the generic path from
// the same pristine inputs, which reproduces the identical elimination
// prefix and then handles the pivot exactly as solveDense always has.
//
//detlint:hotpath witness=TestWorkspaceSimulateAllocs
func cell6Iter(gStatic, zStep, newt, vdrv []float64, plans []mosPlan, mos []*MOSParams) (maxDelta float64, ok bool) {
	a := *(*[36]float64)(gStatic)
	z := *(*[6]float64)(zStep)
	nt := (*[6]float64)(newt)
	for mi, p := range mos {
		pl := plans[mi]
		var vd, vg, vs float64
		if pl.rd >= 0 {
			vd = nt[pl.rd]
		} else if pl.dd >= 0 {
			vd = vdrv[pl.dd]
		}
		if pl.rg >= 0 {
			vg = nt[pl.rg]
		} else if pl.dg >= 0 {
			vg = vdrv[pl.dg]
		}
		if pl.rs >= 0 {
			vs = nt[pl.rs]
		} else if pl.ds >= 0 {
			vs = vdrv[pl.ds]
		}
		// mosStamp's body, by hand: the compiler declines to inline it
		// (cost 235 vs budget 80) and the call runs five times per Newton
		// iteration of every run. Arithmetic identical, in order — keep in
		// sync with mosStamp.
		mvd, mvg, mvs := vd, vg, vs
		neg := 1.0
		if p.Type == PMOS {
			mvd, mvg, mvs = -mvd, -mvg, -mvs
			neg = -1
		}
		sign := 1.0
		if mvd < mvs {
			mvd, mvs = mvs, mvd
			sign = -1
		}
		vgs := mvg - mvs
		vds := mvd - mvs
		vov := vgs - p.VT0
		const gmin = 1e-12
		beta := p.KP * p.W / p.L
		var cur, gm, gd float64
		switch {
		case vov <= 0:
			cur = gmin * vds
			gd = gmin
			gm = 0
		case vds < vov:
			clm := 1 + p.Lambda*vds
			cur = beta * (vov*vds - vds*vds/2) * clm
			gm = beta * vds * clm
			gd = beta*(vov-vds)*clm + beta*(vov*vds-vds*vds/2)*p.Lambda + gmin
		default:
			clm := 1 + p.Lambda*vds
			cur = beta / 2 * vov * vov * clm
			gm = beta * vov * clm
			gd = beta/2*vov*vov*p.Lambda + gmin
		}
		cur *= sign
		var id, gdd, gdg, gds float64
		if sign > 0 {
			id, gdd, gdg, gds = neg*cur, gd, gm, -(gm + gd)
		} else {
			id, gdd, gdg, gds = neg*cur, gm+gd, -gm, -gd
		}
		ieq := id - gdd*vd - gdg*vg - gds*vs
		if rd := pl.rd; rd >= 0 {
			row := rd * 6
			a[row+rd] += gdd
			if pl.rg >= 0 {
				a[row+pl.rg] += gdg
			} else if pl.dg >= 0 {
				z[rd] -= gdg * vdrv[pl.dg]
			}
			if pl.rs >= 0 {
				a[row+pl.rs] += gds
			} else if pl.ds >= 0 {
				z[rd] -= gds * vdrv[pl.ds]
			}
			z[rd] -= ieq
		}
		if rs := pl.rs; rs >= 0 {
			row := rs * 6
			if pl.rd >= 0 {
				a[row+pl.rd] += -gdd
			} else if pl.dd >= 0 {
				z[rs] -= -gdd * vdrv[pl.dd]
			}
			if pl.rg >= 0 {
				a[row+pl.rg] += -gdg
			} else if pl.dg >= 0 {
				z[rs] -= -gdg * vdrv[pl.dg]
			}
			a[row+rs] += -gds
			z[rs] += ieq
		}
	}

	// The elimination and back-substitution of solve6Cell, on the stack
	// copies.
	d := abs(a[0])
	if abs(a[6]) > d || d < 1e-18 {
		return 0, false
	}
	if f := a[6] * (1 / a[0]); f != 0 {
		a[7] -= f * a[1]
		z[1] -= f * z[0]
	}
	d = abs(a[7])
	if abs(a[13]) > d || d < 1e-18 {
		return 0, false
	}
	if f := a[13] * (1 / a[7]); f != 0 {
		a[14] -= f * a[8]
		z[2] -= f * z[1]
	}
	d = abs(a[14])
	if abs(a[20]) > d || d < 1e-18 {
		return 0, false
	}
	if f := a[20] * (1 / a[14]); f != 0 {
		a[21] -= f * a[15]
		z[3] -= f * z[2]
	}
	d = abs(a[21])
	if abs(a[33]) > d || d < 1e-18 {
		return 0, false
	}
	if f := a[33] * (1 / a[21]); f != 0 {
		a[35] -= f * a[23]
		z[5] -= f * z[3]
	}
	d = abs(a[28])
	if abs(a[34]) > d || d < 1e-18 {
		return 0, false
	}
	if f := a[34] * (1 / a[28]); f != 0 {
		a[35] -= f * a[29]
		z[5] -= f * z[4]
	}
	if abs(a[35]) < 1e-18 {
		return 0, false
	}

	z[5] = z[5] / a[35]
	z[4] = (z[4] - a[29]*z[5]) / a[28]
	z[3] = (z[3] - a[23]*z[5]) / a[21]
	z[2] = (z[2] - a[15]*z[3]) / a[14]
	z[1] = (z[1] - a[8]*z[2]) / a[7]
	z[0] = (z[0] - a[1]*z[1]) / a[0]

	// Damped Newton update and convergence norm, fused so the solution
	// never round-trips through memory: the same arithmetic, in the same
	// unknown order, as the generic path's update loop in stepReduced.
	for i := 0; i < 6; i++ {
		d := z[i] - nt[i]
		if abs(d) > maxDelta {
			maxDelta = abs(d)
		}
		if abs(d) > newtonMaxDelta {
			if d > 0 {
				d = newtonMaxDelta
			} else {
				d = -newtonMaxDelta
			}
		}
		nt[i] += d
	}
	return maxDelta, true
}
