package spice

// MOSType distinguishes n-channel from p-channel devices.
type MOSType int

// MOSFET polarities.
const (
	NMOS MOSType = iota + 1
	PMOS
)

// MOSParams is a level-1 (Shichman-Hodges) MOSFET parameter set, adequate
// for the charge-sharing and latch dynamics this study needs.
type MOSParams struct {
	Type MOSType
	// W and L are channel width and length in meters.
	W, L float64
	// VT0 is the zero-bias threshold voltage (positive for NMOS; for PMOS
	// the magnitude is used).
	VT0 float64
	// KP is the transconductance parameter (A/V^2), i.e. u0*Cox.
	KP float64
	// Lambda is the channel-length modulation coefficient (1/V).
	Lambda float64
}

// eval computes the drain current and small-signal conductances of the
// device at terminal voltages (vd, vg, vs), all referred to ground. The
// returned current flows into the drain terminal. Source/drain are swapped
// internally when the applied polarity is reversed (symmetric device).
func (p MOSParams) eval(vd, vg, vs float64) (id, gm, gds float64) {
	if p.Type == PMOS {
		// Evaluate the dual NMOS with mirrored voltages.
		n := p
		n.Type = NMOS
		id, gm, gds = n.eval(-vd, -vg, -vs)
		return -id, gm, gds
	}

	sign := 1.0
	if vd < vs {
		vd, vs = vs, vd
		sign = -1
	}
	vgs := vg - vs
	vds := vd - vs
	vov := vgs - p.VT0

	const gmin = 1e-12 // leakage floor for Newton stability
	beta := p.KP * p.W / p.L
	switch {
	case vov <= 0:
		// Cutoff: only the stability floor conducts.
		id = gmin * vds
		gds = gmin
		gm = 0
	case vds < vov:
		// Triode region.
		clm := 1 + p.Lambda*vds
		id = beta * (vov*vds - vds*vds/2) * clm
		gm = beta * vds * clm
		gds = beta*(vov-vds)*clm + beta*(vov*vds-vds*vds/2)*p.Lambda + gmin
	default:
		// Saturation.
		clm := 1 + p.Lambda*vds
		id = beta / 2 * vov * vov * clm
		gm = beta * vov * clm
		gds = beta/2*vov*vov*p.Lambda + gmin
	}
	return sign * id, gm, gds
}

// stamp computes the drain current and its partial derivatives with respect
// to the three terminal voltages, ready for an MNA stamp:
//
//	Id ≈ id + gdd*(Vd-vd) + gdg*(Vg-vg) + gds*(Vs-vs)
//
// The partials are exact closed forms of the level-1 model (translation
// invariance holds: gdd+gdg+gds == 0 up to the gmin floor), so the Newton
// linearization needs one model evaluation per device instead of the four a
// finite-difference Jacobian costs.
//
// The body is eval flattened into a single call-free function — it runs
// five times per Newton iteration of every Monte-Carlo solve, and the
// nested eval call (plus the PMOS mirror recursion) cost more than the
// arithmetic. The float operations are identical to eval's, in the same
// order, so the results are bit-for-bit unchanged.
func (p MOSParams) stamp(vd, vg, vs float64) (id, gdd, gdg, gds float64) {
	return mosStamp(&p, vd, vg, vs)
}

// mosStamp is stamp without the value-receiver copy: the reduced Newton
// loop calls it directly with a pointer into the element slice, which saves copying the parameter struct five times per iteration.
// cell6Iter carries a hand-inlined copy of this body (the compiler's inline
// budget rejects it); any model change here must be mirrored there.
func mosStamp(p *MOSParams, vd, vg, vs float64) (id, gdd, gdg, gds float64) {
	neg := 1.0
	if p.Type == PMOS {
		// Id = -In(-vd,-vg,-vs): the two mirror signs cancel in every
		// partial, so the PMOS partials equal the dual NMOS partials at the
		// mirrored operating point.
		vd, vg, vs = -vd, -vg, -vs
		neg = -1
	}
	sign := 1.0
	if vd < vs {
		vd, vs = vs, vd
		sign = -1
	}
	vgs := vg - vs
	vds := vd - vs
	vov := vgs - p.VT0

	const gmin = 1e-12
	beta := p.KP * p.W / p.L
	var i, gm, gd float64
	switch {
	case vov <= 0:
		i = gmin * vds
		gd = gmin
		gm = 0
	case vds < vov:
		clm := 1 + p.Lambda*vds
		i = beta * (vov*vds - vds*vds/2) * clm
		gm = beta * vds * clm
		gd = beta*(vov-vds)*clm + beta*(vov*vds-vds*vds/2)*p.Lambda + gmin
	default:
		clm := 1 + p.Lambda*vds
		i = beta / 2 * vov * vov * clm
		gm = beta * vov * clm
		gd = beta/2*vov*vov*p.Lambda + gmin
	}
	i *= sign
	if sign > 0 {
		// Forward operation: gm = dId/dVgs and gds = dId/dVds give the
		// terminal partials directly.
		return neg * i, gd, gm, -(gm + gd)
	}
	// Reversed operation: drain and source swapped above and the current
	// negated; the chain rule maps the forward-oriented gm/gd back to the
	// external terminals.
	return neg * i, gm + gd, -gm, -gd
}
