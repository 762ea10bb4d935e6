// Sharded campaign execution: every shared study partitions into
// deterministic, independently-executable work units — one per-module testbed
// for the RowHammer / tRCD / retention / word-analysis / CV sweeps, one
// per-VPP-level Monte-Carlo run range for the SPICE study — and each unit's
// partial result serializes to JSON, travels as a shard artifact, and folds
// back in catalog/(level, run) order. Because the single-process drivers
// already compute exactly these partials and merge them in the same order,
// a sharded campaign reproduces the single-process output byte for byte.

package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"github.com/dramstudy/rhvpp/internal/pattern"
	"github.com/dramstudy/rhvpp/internal/physics"
	"github.com/dramstudy/rhvpp/internal/spice"
	"github.com/dramstudy/rhvpp/internal/stats"
)

// Canonical study names, shared with the root package's Study constants and
// the shard-artifact encoding.
const (
	StudyNameRowHammer    = "rowhammer"
	StudyNameTRCD         = "trcd"
	StudyNameRetention    = "retention"
	StudyNameWaveforms    = "spice-waveforms"
	StudyNameSpiceMC      = "spice-mc"
	StudyNameWordAnalysis = "word-analysis"
	StudyNameCV           = "cv"
)

// ShardableStudies lists the studies that partition into work units, in the
// fixed order sharding plans enumerate them. The SPICE waveform study is
// deliberately absent: it is a single cheap deterministic simulation with no
// per-module or per-run structure, so every process (including the merge
// renderer) computes it locally.
func ShardableStudies() []string {
	return []string{
		StudyNameRowHammer,
		StudyNameTRCD,
		StudyNameRetention,
		StudyNameWordAnalysis,
		StudyNameCV,
		StudyNameSpiceMC,
	}
}

// UnitRef names one work unit of one study.
type UnitRef struct {
	// Study is the canonical study name.
	Study string `json:"study"`
	// Key identifies the unit: the module label for per-module studies, the
	// formatted VPP level ("2.5") for the SPICE Monte-Carlo.
	Key string `json:"key"`
	// Index is the unit's position in the study's catalog/level order.
	Index int `json:"index"`
}

// PlanStudy returns the study's work units in deterministic catalog/level
// order for the given (validated) options.
func PlanStudy(o Options, study string) ([]UnitRef, error) {
	switch study {
	case StudyNameRowHammer, StudyNameTRCD, StudyNameRetention, StudyNameWordAnalysis, StudyNameCV:
		profs, err := o.profiles()
		if err != nil {
			return nil, err
		}
		units := make([]UnitRef, len(profs))
		for i, p := range profs {
			units[i] = UnitRef{Study: study, Key: p.Name, Index: i}
		}
		return units, nil
	case StudyNameSpiceMC:
		units := make([]UnitRef, len(spiceSweepVPPs))
		for i, vpp := range spiceSweepVPPs {
			units[i] = UnitRef{Study: study, Key: mcLevelKey(vpp), Index: i}
		}
		return units, nil
	}
	return nil, fmt.Errorf("experiments: study %q is not shardable (shardable: %s)",
		study, strings.Join(ShardableStudies(), " "))
}

// mcLevelKey formats a Monte-Carlo VPP level as a unit key.
func mcLevelKey(vpp float64) string { return fmt.Sprintf("%.1f", vpp) }

// mcConfig is the Monte-Carlo configuration the campaign uses for the
// Fig. 8b/9b study (±5% component variation, §4.5).
func mcConfig(o Options) spice.MCConfig {
	return spice.MCConfig{
		Runs:      o.SpiceMCRuns,
		Seed:      o.Seed,
		Variation: 0.05,
		Jobs:      o.jobs(),
	}
}

// moduleSweepWire is the serialized form of ModuleSweep. The profile travels
// by name and is re-resolved from the static catalog on decode.
type moduleSweepWire struct {
	Module          string               `json:"module"`
	Rows            []int                `json:"rows"`
	WCDP            map[int]pattern.Kind `json:"wcdp"`
	Points          []VPPPoint           `json:"points"`
	RowNormHCAtMin  stats.Dist           `json:"row_norm_hc_at_min"`
	RowNormBERAtMin stats.Dist           `json:"row_norm_ber_at_min"`
}

func sweepToWire(s ModuleSweep) moduleSweepWire {
	return moduleSweepWire{
		Module: s.Profile.Name, Rows: s.Rows, WCDP: s.WCDP, Points: s.Points,
		RowNormHCAtMin: s.RowNormHCAtMin, RowNormBERAtMin: s.RowNormBERAtMin,
	}
}

func sweepFromWire(w moduleSweepWire) (ModuleSweep, error) {
	prof, ok := physics.ProfileByName(w.Module)
	if !ok {
		return ModuleSweep{}, fmt.Errorf("experiments: sweep partial names unknown module %q", w.Module)
	}
	return ModuleSweep{
		Profile: prof, Rows: w.Rows, WCDP: w.WCDP, Points: w.Points,
		RowNormHCAtMin: w.RowNormHCAtMin, RowNormBERAtMin: w.RowNormBERAtMin,
	}, nil
}

// trcdSweepWire is the serialized form of TRCDSweep.
type trcdSweepWire struct {
	Module          string    `json:"module"`
	Rows            []int     `json:"rows"`
	VPP             []float64 `json:"vpp"`
	ModuleTRCDMinNS []float64 `json:"module_trcd_min_ns"`
	FixVerified     bool      `json:"fix_verified"`
}

func trcdToWire(s TRCDSweep) trcdSweepWire {
	return trcdSweepWire{
		Module: s.Profile.Name, Rows: s.Rows, VPP: s.VPP,
		ModuleTRCDMinNS: s.ModuleTRCDMinNS, FixVerified: s.FixVerified,
	}
}

func trcdFromWire(w trcdSweepWire) (TRCDSweep, error) {
	prof, ok := physics.ProfileByName(w.Module)
	if !ok {
		return TRCDSweep{}, fmt.Errorf("experiments: tRCD partial names unknown module %q", w.Module)
	}
	return TRCDSweep{
		Profile: prof, Rows: w.Rows, VPP: w.VPP,
		ModuleTRCDMinNS: w.ModuleTRCDMinNS, FixVerified: w.FixVerified,
	}, nil
}

// validateUnits checks that every requested unit belongs to the study's plan
// under these options, returning the plan for reuse.
func validateUnits(o Options, study string, units []UnitRef) ([]UnitRef, error) {
	plan, err := PlanStudy(o, study)
	if err != nil {
		return nil, err
	}
	byKey := make(map[string]int, len(plan))
	for _, u := range plan {
		byKey[u.Key] = u.Index
	}
	for _, u := range units {
		if u.Study != study {
			return nil, fmt.Errorf("experiments: unit %s/%q handed to the %s study", u.Study, u.Key, study)
		}
		idx, ok := byKey[u.Key]
		if !ok || idx != u.Index {
			return nil, fmt.Errorf("experiments: unit %s/%q (index %d) is not part of this campaign's plan",
				study, u.Key, u.Index)
		}
	}
	return plan, nil
}

// RunUnits executes the given work units of ONE study and returns each
// unit's serialized partial result, index-aligned with units.
//
// Module-sweep units run Options.Jobs at a time through the shared bounded
// pool, exactly like the in-process study drivers. SPICE Monte-Carlo units
// run as ONE RunMonteCarloSweep over the units' levels, so a shard keeps the
// global run queue (workers stay busy across level boundaries) and each
// level's runs fold in (level, run) order — per-level results are identical
// no matter how levels are grouped into shards, because every run draws from
// its own per-level, per-index RNG stream.
func RunUnits(ctx context.Context, o Options, study string, units []UnitRef) ([]json.RawMessage, error) {
	return RunUnitsObserved(ctx, o, study, units, nil)
}

// RunUnitsObserved is RunUnits with a completion hook: onUnit fires once per
// unit as its partial result becomes available. Module-study hooks fire from
// the pool's worker goroutines (concurrently, in completion order — the
// results themselves still fold in catalog order); SPICE Monte-Carlo hooks
// fire in level order after the sweep, because the global run queue
// interleaves levels and a level is not "done" until the sweep is. The hook
// observes execution only — a nil onUnit is exactly RunUnits, and the
// returned payloads are byte-identical either way.
func RunUnitsObserved(ctx context.Context, o Options, study string, units []UnitRef, onUnit func(UnitRef)) ([]json.RawMessage, error) {
	if len(units) == 0 {
		return nil, nil
	}
	if _, err := validateUnits(o, study, units); err != nil {
		return nil, err
	}
	if study == StudyNameSpiceMC {
		vpps := make([]float64, len(units))
		for i, u := range units {
			vpps[i] = spiceSweepVPPs[u.Index]
		}
		results, err := spice.RunMonteCarloSweep(ctx, vpps, mcConfig(o))
		if err != nil {
			return nil, fmt.Errorf("Monte Carlo sweep: %w", err)
		}
		out := make([]json.RawMessage, len(results))
		for i, r := range results {
			if out[i], err = json.Marshal(r); err != nil {
				return nil, fmt.Errorf("experiments: encoding MC level %s: %w", units[i].Key, err)
			}
			if onUnit != nil {
				onUnit(units[i])
			}
		}
		return out, nil
	}
	return runPool(ctx, o.jobs(), units,
		func(ctx context.Context, u UnitRef) (json.RawMessage, error) {
			prof, _ := physics.ProfileByName(u.Key) // validated above
			part, err := runModuleUnit(ctx, o, study, prof)
			if err != nil {
				return nil, err
			}
			raw, err := json.Marshal(part)
			if err != nil {
				return nil, fmt.Errorf("experiments: encoding %s unit %s: %w", study, u.Key, err)
			}
			if onUnit != nil {
				onUnit(u)
			}
			return raw, nil
		})
}

// runModuleUnit executes one per-module work unit and returns its
// serializable partial.
func runModuleUnit(ctx context.Context, o Options, study string, prof physics.ModuleProfile) (any, error) {
	switch study {
	case StudyNameRowHammer:
		sweep, err := RunModuleSweep(ctx, o, prof)
		if err != nil {
			return nil, err
		}
		return sweepToWire(sweep), nil
	case StudyNameTRCD:
		sweep, err := RunTRCDSweep(ctx, o, prof)
		if err != nil {
			return nil, err
		}
		return trcdToWire(sweep), nil
	case StudyNameRetention:
		return RunModuleRetention(ctx, o, prof)
	case StudyNameWordAnalysis:
		return RunModuleWords(ctx, o, prof)
	case StudyNameCV:
		return runModuleCV(ctx, o, prof)
	}
	return nil, fmt.Errorf("experiments: study %q has no per-module units", study)
}

// orderedPartials resolves the study's complete unit payload set in plan
// order, erroring on missing or surplus units — the completeness check that
// makes a partial shard set fail loudly at assembly.
func orderedPartials(o Options, study string, data map[string]json.RawMessage) ([]json.RawMessage, error) {
	plan, err := PlanStudy(o, study)
	if err != nil {
		return nil, err
	}
	if len(data) > len(plan) {
		known := make(map[string]bool, len(plan))
		for _, u := range plan {
			known[u.Key] = true
		}
		for k := range data {
			if !known[k] {
				return nil, fmt.Errorf("experiments: %s unit %q is not part of this campaign's plan", study, k)
			}
		}
	}
	out := make([]json.RawMessage, len(plan))
	for i, u := range plan {
		raw, ok := data[u.Key]
		if !ok {
			return nil, fmt.Errorf("experiments: shard set incomplete: %s unit %q missing (have %d of %d units)",
				study, u.Key, len(data), len(plan))
		}
		out[i] = raw
	}
	return out, nil
}

// decodePartials unmarshals every payload into fresh T values, plan-ordered.
func decodePartials[T any](o Options, study string, data map[string]json.RawMessage) ([]T, error) {
	ordered, err := orderedPartials(o, study, data)
	if err != nil {
		return nil, err
	}
	out := make([]T, len(ordered))
	for i, raw := range ordered {
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			return nil, fmt.Errorf("experiments: decoding %s unit %d: %w", study, i, err)
		}
	}
	return out, nil
}

// AssembleRowHammerStudy rebuilds the Fig. 3-6 / Table 3 study from unit
// payloads keyed by module name, folding sweeps in catalog order.
func AssembleRowHammerStudy(o Options, data map[string]json.RawMessage) (RowHammerStudy, error) {
	wires, err := decodePartials[moduleSweepWire](o, StudyNameRowHammer, data)
	if err != nil {
		return RowHammerStudy{}, err
	}
	st := RowHammerStudy{Sweeps: make([]ModuleSweep, len(wires))}
	for i, w := range wires {
		if st.Sweeps[i], err = sweepFromWire(w); err != nil {
			return RowHammerStudy{}, err
		}
	}
	return st, nil
}

// AssembleTRCDStudy rebuilds the Fig. 7 study from unit payloads.
func AssembleTRCDStudy(o Options, data map[string]json.RawMessage) (TRCDStudy, error) {
	wires, err := decodePartials[trcdSweepWire](o, StudyNameTRCD, data)
	if err != nil {
		return TRCDStudy{}, err
	}
	st := TRCDStudy{Sweeps: make([]TRCDSweep, len(wires))}
	for i, w := range wires {
		if st.Sweeps[i], err = trcdFromWire(w); err != nil {
			return TRCDStudy{}, err
		}
	}
	return st, nil
}

// AssembleRetentionStudy rebuilds the Fig. 10 study from unit payloads.
func AssembleRetentionStudy(o Options, data map[string]json.RawMessage) (RetentionStudy, error) {
	parts, err := decodePartials[ModuleRetention](o, StudyNameRetention, data)
	if err != nil {
		return RetentionStudy{}, err
	}
	return assembleRetention(o, parts)
}

// AssembleWordAnalysis rebuilds the Fig. 11 study from unit payloads.
func AssembleWordAnalysis(o Options, data map[string]json.RawMessage) (WordAnalysis, error) {
	parts, err := decodePartials[ModuleWords](o, StudyNameWordAnalysis, data)
	if err != nil {
		return WordAnalysis{}, err
	}
	return assembleWordAnalysis(parts), nil
}

// AssembleCVStudy rebuilds the §4.6 study from unit payloads.
func AssembleCVStudy(o Options, data map[string]json.RawMessage) (CVStudy, error) {
	parts, err := decodePartials[stats.Dist](o, StudyNameCV, data)
	if err != nil {
		return CVStudy{}, err
	}
	return assembleCV(parts), nil
}

// AssembleMCStudy rebuilds the Fig. 8b/9b study from per-level payloads keyed
// by formatted VPP, in sweep-level order.
func AssembleMCStudy(o Options, data map[string]json.RawMessage) (MCStudy, error) {
	results, err := decodePartials[spice.MCResult](o, StudyNameSpiceMC, data)
	if err != nil {
		return MCStudy{}, err
	}
	for i, r := range results {
		if mcLevelKey(r.VPP) != mcLevelKey(spiceSweepVPPs[i]) {
			return MCStudy{}, fmt.Errorf("experiments: MC partial at level %s carries VPP %.2f",
				mcLevelKey(spiceSweepVPPs[i]), r.VPP)
		}
	}
	return MCStudy{Results: results}, nil
}
