package rhvpp

import (
	"github.com/dramstudy/rhvpp/internal/core"
	"github.com/dramstudy/rhvpp/internal/dram"
	"github.com/dramstudy/rhvpp/internal/experiments"
	"github.com/dramstudy/rhvpp/internal/infra"
	"github.com/dramstudy/rhvpp/internal/mapping"
	"github.com/dramstudy/rhvpp/internal/mitigation"
	"github.com/dramstudy/rhvpp/internal/pattern"
	"github.com/dramstudy/rhvpp/internal/physics"
)

// Re-exported types forming the public API surface. The implementations
// live in internal packages; these aliases are the supported names.
type (
	// ModuleProfile identifies one of the 30 tested DIMMs and its published
	// characteristics (paper Table 3).
	ModuleProfile = physics.ModuleProfile
	// Geometry is the simulated DRAM array organization.
	Geometry = physics.Geometry
	// Manufacturer is the anonymized DRAM vendor (A, B, C).
	Manufacturer = physics.Manufacturer
	// Config carries the methodology parameters of the paper's §4.
	Config = core.Config
	// Options scales a full experiment campaign.
	Options = experiments.Options
	// RowHammerResult is a per-row Alg. 1 outcome.
	RowHammerResult = core.RowHammerResult
	// RetentionResult is a per-row Alg. 3 outcome.
	RetentionResult = core.RetentionResult
	// Pattern is a canonical DRAM test data pattern.
	Pattern = pattern.Kind

	// RowHammerStudy is the shared Fig. 3-6 / Table 3 campaign result.
	RowHammerStudy = experiments.RowHammerStudy
	// ModuleSweep is one module's RowHammer-vs-VPP characterization.
	ModuleSweep = experiments.ModuleSweep
	// TRCDStudy is the shared Fig. 7 / §6.1 campaign result.
	TRCDStudy = experiments.TRCDStudy
	// RetentionStudy is the shared Fig. 10 campaign result.
	RetentionStudy = experiments.RetentionStudy
	// WordAnalysis is the shared Fig. 11 campaign result.
	WordAnalysis = experiments.WordAnalysis
	// Waveforms holds the shared Fig. 8a / 9a SPICE transient traces.
	Waveforms = experiments.Waveforms
	// MCStudy is the shared Fig. 8b / 9b SPICE Monte-Carlo result.
	MCStudy = experiments.MCStudy
	// CVStudy is the §4.6 measurement-variation analysis result.
	CVStudy = experiments.CVStudy
)

// Re-exported constants.
const (
	VPPNominal    = physics.VPPNominal
	VDDNominal    = physics.VDDNominal
	TRCDNominalNS = physics.TRCDNominalNS
	ReferenceHC   = physics.ReferenceHammerCount
)

// Modules returns the profiles of all 30 tested DIMMs.
func Modules() []ModuleProfile { return physics.Profiles() }

// ModuleByName looks a profile up by its Table 3 label (e.g. "B3").
func ModuleByName(name string) (ModuleProfile, bool) { return physics.ProfileByName(name) }

// DefaultConfig returns the paper's methodology parameters; QuickConfig a
// reduced-effort variant for interactive use.
func DefaultConfig() Config { return core.Default() }

// QuickConfig returns the reduced-effort methodology parameters.
func QuickConfig() Config { return core.Quick() }

// DefaultOptions returns a laptop-scale campaign; PaperOptions the paper's
// full parameters.
func DefaultOptions() Options { return experiments.Default() }

// PaperOptions returns the full-scale campaign parameters.
func PaperOptions() Options { return experiments.Paper() }

// GoldenOptions returns the pinned regression-campaign scope: the exact
// parameters behind testdata/golden/all.{txt,json,csv}. It spans two modules
// per manufacturer (so per-module partials merge in catalog order), a
// tRCD-failing module (A0), a retention-failing module (B6), and a
// Monte-Carlo sweep large enough to populate the Fig. 8b/9b distribution
// columns — the scope the golden test and CI's sharded-equivalence job both
// replay. Change it only together with the committed goldens.
func GoldenOptions() Options {
	o := experiments.Default()
	o.Geometry = physics.Geometry{Banks: 1, RowsPerBank: 4096, RowBytes: 512, SubarrayRows: 512}
	cfg := core.Quick()
	cfg.MinHCStep = 4000
	o.Config = cfg
	o.Chunks = 2
	o.RowsPerChunk = 3
	o.VPPStride = 4
	o.SpiceMCRuns = 24
	o.RetentionVPPLevels = []float64{2.5, 1.9, 1.5}
	o.ModuleNames = []string{"A0", "A3", "B0", "B3", "B6", "C0"}
	return o
}

// Lab is an assembled testbed for one simulated module: the DIMM on the
// interposer, the SoftMC controller, the external VPP supply, and the
// thermal loop — everything Fig. 2 of the paper shows, in software.
type Lab struct {
	tb     *infra.Testbed
	tester *core.Tester
}

// LabOption customizes lab construction.
type LabOption func(*labConfig)

type labConfig struct {
	seed     uint64
	geometry Geometry
	config   Config
	modOpts  []dram.Option
}

// WithSeed selects the simulated device instance.
func WithSeed(seed uint64) LabOption { return func(c *labConfig) { c.seed = seed } }

// WithGeometry overrides the simulated array organization. NewLab panics
// with Geometry.Validate's error (naming the field and its accepted range)
// if the geometry is unusable.
func WithGeometry(g Geometry) LabOption { return func(c *labConfig) { c.geometry = g } }

// WithConfig overrides the methodology parameters.
func WithConfig(cfg Config) LabOption { return func(c *labConfig) { c.config = cfg } }

// WithTRR equips the module with an in-DRAM target-row-refresh engine.
func WithTRR(trackers int) LabOption {
	return func(c *labConfig) { c.modOpts = append(c.modOpts, dram.WithTRR(trackers)) }
}

// NewLab assembles a lab around the given module profile.
func NewLab(prof ModuleProfile, opts ...LabOption) *Lab {
	cfg := labConfig{
		seed:     2022,
		geometry: physics.Geometry{Banks: 1, RowsPerBank: 8192, RowBytes: 1024, SubarrayRows: 512},
		config:   core.Quick(),
	}
	for _, o := range opts {
		o(&cfg)
	}
	tb := infra.NewTestbed(prof, cfg.geometry, cfg.seed, cfg.modOpts...)
	return &Lab{tb: tb, tester: core.NewTester(tb.Controller, cfg.config)}
}

// Profile returns the module's identity and published characteristics.
func (l *Lab) Profile() ModuleProfile { return l.tb.Module.Profile() }

// SetVPP programs the external supply (±1 mV precision).
func (l *Lab) SetVPP(v float64) error { return l.tb.SetVPP(v) }

// VPP returns the current wordline voltage.
func (l *Lab) VPP() float64 { return l.tb.Module.VPP() }

// SetTemperature retargets and settles the PID thermal loop.
func (l *Lab) SetTemperature(c float64) error { return l.tb.SetTemperature(c) }

// DiscoverVPPmin lowers VPP until the module stops responding and returns
// the lowest working voltage (§4.1).
func (l *Lab) DiscoverVPPmin() (float64, error) { return l.tb.DiscoverVPPmin() }

// Responds reports whether the module communicates at the current VPP.
func (l *Lab) Responds() bool { return l.tb.Module.Responds() }

// CharacterizeRow runs the full Alg. 1 flow (WCDP selection, worst-case BER
// at the reference hammer count, HCfirst search) for one victim row.
func (l *Lab) CharacterizeRow(row int) (RowHammerResult, error) {
	return l.tester.CharacterizeRow(row, 0)
}

// MeasureBER performs one double-sided hammering measurement at the given
// per-aggressor count using the row's worst-case pattern.
func (l *Lab) MeasureBER(row, hammerCount int) (float64, error) {
	wcdp, err := l.tester.SelectWCDP(row)
	if err != nil {
		return 0, err
	}
	return l.tester.MeasureBER(row, wcdp, hammerCount)
}

// TRCDMin measures the row's minimum reliable activation latency (Alg. 2).
func (l *Lab) TRCDMin(row int) (float64, error) {
	res, err := l.tester.CharacterizeRowTRCD(row, 0)
	if err != nil {
		return 0, err
	}
	return res.MinReliableNS, nil
}

// RetentionSweep measures the row's retention BER across the ladder of
// refresh windows (Alg. 3). Call SetTemperature(80) first for the paper's
// conditions.
func (l *Lab) RetentionSweep(row int) (RetentionResult, error) {
	return l.tester.RetentionSweep(row, 0)
}

// Aggressors returns the two logical rows physically adjacent to a victim.
func (l *Lab) Aggressors(victim int) (lo, hi int, err error) {
	return l.tester.AggressorsFor(victim)
}

// ReverseEngineerAdjacency probes physical adjacency for a window of rows
// by escalating single-sided hammering (§4.2), and installs the result so
// subsequent characterization uses probed neighbors.
func (l *Lab) ReverseEngineerAdjacency(window []int, maxCount int) error {
	adj, err := mapping.ReverseEngineer(l.tb.Controller, window, maxCount)
	if err != nil {
		return err
	}
	l.tester.UseAdjacency(adj)
	return nil
}

// RecommendVPP sweeps the module across its VPP range and returns the
// operating point the Table 3 policy recommends (argmax HCfirst).
func (l *Lab) RecommendVPP(rows []int) (float64, error) {
	var vpps, hcs, bers []float64
	for _, vpp := range l.Profile().VPPLevels() {
		if err := l.SetVPP(vpp); err != nil {
			return 0, err
		}
		minHC, sumBER := 0.0, 0.0
		n := 0
		for _, row := range rows {
			res, err := l.tester.CharacterizeRow(row, 0)
			if err != nil {
				continue
			}
			if minHC == 0 || float64(res.HCFirst) < minHC {
				minHC = float64(res.HCFirst)
			}
			sumBER += res.BER
			n++
		}
		if n == 0 {
			continue
		}
		vpps = append(vpps, vpp)
		hcs = append(hcs, minHC)
		bers = append(bers, sumBER/float64(n))
	}
	rec, _, err := mitigation.RecommendVPP(vpps, hcs, bers)
	return rec, err
}
