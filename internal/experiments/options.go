package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"

	"github.com/dramstudy/rhvpp/internal/core"
	"github.com/dramstudy/rhvpp/internal/infra"
	"github.com/dramstudy/rhvpp/internal/physics"
)

// Options scales the experiment campaign. The paper's full scale (272 chips,
// 4K rows each, 10 iterations) runs for weeks on an FPGA; Default keeps the
// same structure at a size a laptop simulates in seconds, and Paper restores
// the full parameters.
//
// The directive below freezes the v1 canonical-fingerprint field set
// (docs/CONTRACTS.md, "Fingerprint completeness"): fields added later must
// carry `json:",omitempty"` so shard artifacts produced before the addition
// still merge with ones produced after.
//
//detlint:fingerprint v1=Seed,Geometry,Config,Chunks,RowsPerChunk,ModuleNames,VPPStride,SpiceMCRuns,RetentionVPPLevels,Jobs
type Options struct {
	// Seed selects the simulated device population.
	Seed uint64
	// Geometry is the simulated array organization.
	Geometry physics.Geometry
	// Config is the methodology parameter set (iterations, search steps).
	Config core.Config
	// Chunks and RowsPerChunk select the tested victim rows per module
	// (the paper uses 4 chunks of 1K rows).
	Chunks, RowsPerChunk int
	// ModuleNames restricts the campaign to a subset of Table 3 modules;
	// empty means all 30. Unknown names are an error (see Validate).
	ModuleNames []string
	// VPPStride subsamples the 0.1 V sweep (1 = every level, 2 = every
	// other level, ...). The nominal level and VPPmin are always included.
	VPPStride int
	// SpiceMCRuns is the Monte-Carlo campaign size per VPP level for the
	// Fig. 8b / 9b distributions (the paper runs 10K).
	SpiceMCRuns int
	// RetentionVPPLevels are the voltages swept by the Fig. 10 retention
	// study (clamped per module to its VPPmin).
	RetentionVPPLevels []float64
	// Jobs bounds how many module testbeds are characterized concurrently
	// (0 = one worker per CPU). Results are merged in catalog order, so
	// any value produces byte-identical output.
	Jobs int
}

// Default returns a laptop-scale campaign preserving the paper's structure.
func Default() Options {
	return Options{
		Seed:               2022,
		Geometry:           physics.Geometry{Banks: 1, RowsPerBank: 8192, RowBytes: 1024, SubarrayRows: 512},
		Config:             core.Quick(),
		Chunks:             4,
		RowsPerChunk:       6,
		VPPStride:          2,
		SpiceMCRuns:        200,
		RetentionVPPLevels: []float64{2.5, 2.1, 1.9, 1.7, 1.5},
	}
}

// Paper returns the full-scale parameters behind the `paper` preset (very
// slow; docs/PERF.md records its projected run time).
func Paper() Options {
	o := Default()
	o.Geometry = physics.FullGeometry()
	o.Config = core.Default()
	o.RowsPerChunk = 1000
	o.VPPStride = 1
	o.SpiceMCRuns = 10000
	o.RetentionVPPLevels = []float64{2.5, 2.4, 2.3, 2.2, 2.1, 2.0, 1.9, 1.8, 1.7, 1.6, 1.5}
	return o
}

// KnownModuleNames lists the Table 3 labels in catalog order.
func KnownModuleNames() []string {
	all := physics.Profiles()
	names := make([]string, 0, len(all))
	for _, p := range all {
		names = append(names, p.Name)
	}
	return names
}

// Upper bounds Validate places on a campaign's size knobs: ten times the
// paper's 10,000 Monte-Carlo runs per level, and far more workers than any
// host has CPUs.
const (
	MaxSpiceMCRuns = 100_000
	MaxJobs        = 1024
)

// Validate rejects campaigns that would silently test the wrong population
// (every entry of ModuleNames must be a Table 3 label, with no duplicates)
// or misread their own knobs: a negative Jobs is an error — it is neither
// "serial" (that is 1) nor "one per CPU" (that is 0), so accepting it would
// quietly run a configuration the caller never asked for. Likewise a
// negative campaign size (SpiceMCRuns, Chunks, RowsPerChunk) or VPPStride
// describes no campaign at all; accepting it would run some other one under
// a fingerprint of its own, and so does a row selection larger than the
// bank (more Chunks than rows, or RowsPerChunk past a chunk's even share of
// the bank). SpiceMCRuns and Jobs are capped at MaxSpiceMCRuns and MaxJobs,
// so one campaign's cost stays bounded. RetentionVPPLevels must name at
// least one level, each a finite voltage the supply can program and none
// repeated.
func (o Options) Validate() error {
	if o.Jobs < 0 {
		return fmt.Errorf("experiments: Jobs %d is negative (use 0 for one worker per CPU, or a positive worker count)", o.Jobs)
	}
	if o.Jobs > MaxJobs {
		return fmt.Errorf("experiments: Jobs %d is out of range (accepted range: 0 for one worker per CPU, or 1 to %d workers)", o.Jobs, MaxJobs)
	}
	for _, f := range []struct {
		name, accepted string
		v              int
	}{
		{"Chunks", "0 or more row chunks per module", o.Chunks},
		{"RowsPerChunk", "0 or more rows per chunk", o.RowsPerChunk},
		{"VPPStride", "0 or more; 0 and 1 both sweep every 0.1 V level", o.VPPStride},
		{"SpiceMCRuns", "0 or more Monte-Carlo runs per VPP level", o.SpiceMCRuns},
	} {
		if f.v < 0 {
			return fmt.Errorf("experiments: %s %d is negative (accepted range: %s)", f.name, f.v, f.accepted)
		}
	}
	if o.SpiceMCRuns > MaxSpiceMCRuns {
		return fmt.Errorf("experiments: SpiceMCRuns %d is out of range (accepted range: 0 to %d Monte-Carlo runs per VPP level)", o.SpiceMCRuns, MaxSpiceMCRuns)
	}
	if err := o.validateRetentionLevels(); err != nil {
		return err
	}
	if err := o.Geometry.Validate(); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	// Chunks split the bank evenly; a chunk larger than its share would
	// repeat the next chunk's rows.
	if bank := o.Geometry.RowsPerBank; o.Chunks > bank {
		return fmt.Errorf("experiments: Chunks %d is out of range (accepted range: 0 to %d, the rows per bank)", o.Chunks, bank)
	} else if o.Chunks > 0 && o.RowsPerChunk > bank/o.Chunks {
		return fmt.Errorf("experiments: RowsPerChunk %d is out of range (accepted range: 0 to %d, the rows per bank / Chunks)", o.RowsPerChunk, bank/o.Chunks)
	}
	_, err := o.profiles()
	return err
}

// validateRetentionLevels checks RetentionVPPLevels: a non-empty list of
// finite voltages within the supply's range, no two programming the same
// 1 mV setpoint. Outside the range the supply would refuse the level only
// mid-campaign; a level below it would not fail at all, but sweep a voltage
// no module responds at.
func (o Options) validateRetentionLevels() error {
	levels := o.RetentionVPPLevels
	if len(levels) == 0 {
		return fmt.Errorf("experiments: RetentionVPPLevels is empty (accepted range: %s)", retentionLevelsAccepted)
	}
	for i, v := range levels {
		if math.IsNaN(v) || v < infra.SupplyMinV || v > infra.SupplyMaxV {
			return fmt.Errorf("experiments: RetentionVPPLevels[%d] %g is out of range (accepted range: %s)", i, v, retentionLevelsAccepted)
		}
		for j, w := range levels[:i] {
			if math.Round(v*1000) == math.Round(w*1000) {
				return fmt.Errorf("experiments: RetentionVPPLevels[%d] %g repeats RetentionVPPLevels[%d] %g (accepted range: %s)", i, v, j, w, retentionLevelsAccepted)
			}
		}
	}
	return nil
}

// retentionLevelsAccepted describes the accepted RetentionVPPLevels.
var retentionLevelsAccepted = fmt.Sprintf("one or more distinct finite levels from %g to %g V", infra.SupplyMinV, infra.SupplyMaxV)

// profiles resolves the module subset in catalog order, erroring on names
// outside the tested population (the old behavior of quietly dropping them
// made e.g. a typo in -modules shrink the campaign without a trace).
func (o Options) profiles() ([]physics.ModuleProfile, error) {
	all := physics.Profiles()
	if len(o.ModuleNames) == 0 {
		return all, nil
	}
	byName := make(map[string]physics.ModuleProfile, len(all))
	for _, p := range all {
		byName[p.Name] = p
	}
	var unknown []string
	seen := make(map[string]bool, len(o.ModuleNames))
	out := make([]physics.ModuleProfile, 0, len(o.ModuleNames))
	for _, name := range o.ModuleNames {
		p, ok := byName[name]
		switch {
		case !ok:
			unknown = append(unknown, name)
		case seen[name]:
			return nil, fmt.Errorf("experiments: module %q selected twice", name)
		default:
			seen[name] = true
			out = append(out, p)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("experiments: unknown module(s) %s (known Table 3 labels: %s)",
			strings.Join(unknown, ", "), strings.Join(KnownModuleNames(), " "))
	}
	return out, nil
}

// FirstModule returns the first selected module name, or the fallback when
// the campaign covers the full population. The fallback must itself be a
// Table 3 label; drivers resolve it with physics.ProfileByName and error
// otherwise.
func (o Options) FirstModule(fallback string) string {
	if len(o.ModuleNames) > 0 {
		return o.ModuleNames[0]
	}
	return fallback
}

// jobs resolves the worker-pool bound.
func (o Options) jobs() int {
	if o.Jobs > 0 {
		return o.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// vppLevels returns the swept voltages for a module, honoring the stride
// while always keeping the endpoints.
func (o Options) vppLevels(p physics.ModuleProfile) []float64 {
	full := p.VPPLevels()
	stride := o.VPPStride
	if stride < 1 {
		stride = 1
	}
	var out []float64
	for i, v := range full {
		if i%stride == 0 || i == len(full)-1 {
			out = append(out, v)
		}
	}
	return out
}

// selectVictims returns tested rows that have a usable aggressor pair.
func selectVictims(t *core.Tester, o Options) []int {
	var out []int
	for _, r := range core.SelectRows(o.Geometry, o.Chunks, o.RowsPerChunk) {
		if _, _, err := t.AggressorsFor(r); err == nil {
			out = append(out, r)
		}
	}
	return out
}
