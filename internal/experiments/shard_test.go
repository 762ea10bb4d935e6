package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/dramstudy/rhvpp/internal/report"
	"github.com/dramstudy/rhvpp/internal/stats"
)

// shardOptions is a small campaign exercising every unit type quickly.
func shardOptions() Options {
	o := testOptions("B3", "C0")
	o.SpiceMCRuns = 12
	return o
}

func TestPlanStudyDeterministicCatalogOrder(t *testing.T) {
	o := shardOptions()
	for _, study := range ShardableStudies() {
		units, err := PlanStudy(o, study)
		if err != nil {
			t.Fatalf("%s: %v", study, err)
		}
		if len(units) == 0 {
			t.Fatalf("%s: empty plan", study)
		}
		for i, u := range units {
			if u.Index != i || u.Study != study || u.Key == "" {
				t.Errorf("%s unit %d malformed: %+v", study, i, u)
			}
		}
		again, _ := PlanStudy(o, study)
		if !reflect.DeepEqual(units, again) {
			t.Errorf("%s plan is not deterministic", study)
		}
	}
	// Module studies plan the selected modules in catalog order.
	units, _ := PlanStudy(o, StudyNameRowHammer)
	if len(units) != 2 || units[0].Key != "B3" || units[1].Key != "C0" {
		t.Errorf("rowhammer plan = %+v, want [B3 C0]", units)
	}
	// The MC study plans one unit per sweep level.
	units, _ = PlanStudy(o, StudyNameSpiceMC)
	if len(units) != len(spiceSweepVPPs) || units[0].Key != "2.5" {
		t.Errorf("spice-mc plan = %+v", units)
	}
	if _, err := PlanStudy(o, StudyNameWaveforms); err == nil {
		t.Error("waveforms must not be shardable")
	}
	if _, err := PlanStudy(o, "nope"); err == nil {
		t.Error("unknown study accepted")
	}
}

func TestRunUnitsRejectsForeignUnits(t *testing.T) {
	o := shardOptions()
	ctx := t.Context()
	if _, err := RunUnits(ctx, o, StudyNameCV, []UnitRef{{Study: StudyNameCV, Key: "A9", Index: 0}}); err == nil {
		t.Error("unit outside the module selection accepted")
	}
	if _, err := RunUnits(ctx, o, StudyNameCV, []UnitRef{{Study: StudyNameTRCD, Key: "B3", Index: 0}}); err == nil {
		t.Error("unit of a different study accepted")
	}
	if _, err := RunUnits(ctx, o, StudyNameCV, []UnitRef{{Study: StudyNameCV, Key: "B3", Index: 5}}); err == nil {
		t.Error("unit with wrong index accepted")
	}
}

// runStudyViaUnits executes the study's full plan through the serialized
// unit path — optionally split into k alternating "shards" run separately —
// and assembles the result, i.e. exactly what a sharded campaign does.
func runStudyViaUnits(t *testing.T, o Options, study string, k int) map[string]json.RawMessage {
	t.Helper()
	plan, err := PlanStudy(o, study)
	if err != nil {
		t.Fatal(err)
	}
	data := make(map[string]json.RawMessage, len(plan))
	for shard := 0; shard < k; shard++ {
		var units []UnitRef
		for i, u := range plan {
			if i%k == shard {
				units = append(units, u)
			}
		}
		payloads, err := RunUnits(t.Context(), o, study, units)
		if err != nil {
			t.Fatalf("%s shard %d/%d: %v", study, shard, k, err)
		}
		for i, raw := range payloads {
			data[units[i].Key] = raw
		}
	}
	return data
}

// renderStudy renders a study's experiments into one text buffer, the
// byte-level contract the equivalence tests compare on.
func renderStudy(t *testing.T, render func(enc report.Encoder) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := render(report.NewText(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestUnitPathMatchesDirectDrivers is the sharding acceptance property at
// the experiments layer: for every shardable study, running the plan's units
// through serialize->assemble (split 1-way and 2-way) reproduces the direct
// in-process driver's result exactly.
func TestUnitPathMatchesDirectDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("full study equivalence sweep in -short mode")
	}
	o := shardOptions()
	ctx := t.Context()

	t.Run(StudyNameRowHammer, func(t *testing.T) {
		direct, err := RunRowHammerStudy(ctx, o)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 2; k++ {
			st, err := AssembleRowHammerStudy(o, runStudyViaUnits(t, o, StudyNameRowHammer, k))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(st, direct) {
				t.Errorf("k=%d: assembled RowHammer study differs from direct driver", k)
			}
			want := renderStudy(t, func(enc report.Encoder) error { return enc.Table(direct.Table3()) })
			got := renderStudy(t, func(enc report.Encoder) error { return enc.Table(st.Table3()) })
			if got != want {
				t.Errorf("k=%d: Table 3 bytes diverge", k)
			}
		}
	})

	t.Run(StudyNameTRCD, func(t *testing.T) {
		direct, err := RunTRCDStudy(ctx, o)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 2; k++ {
			st, err := AssembleTRCDStudy(o, runStudyViaUnits(t, o, StudyNameTRCD, k))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(st, direct) {
				t.Errorf("k=%d: assembled tRCD study differs from direct driver", k)
			}
		}
	})

	t.Run(StudyNameRetention, func(t *testing.T) {
		direct, err := RunRetentionStudy(ctx, o)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 2; k++ {
			st, err := AssembleRetentionStudy(o, runStudyViaUnits(t, o, StudyNameRetention, k))
			if err != nil {
				t.Fatal(err)
			}
			want := renderStudy(t, direct.RenderFig10b)
			got := renderStudy(t, st.RenderFig10b)
			if got != want {
				t.Errorf("k=%d: Fig. 10b bytes diverge:\n--- direct ---\n%s\n--- units ---\n%s", k, want, got)
			}
			if !reflect.DeepEqual(st.MeanBER, direct.MeanBER) {
				t.Errorf("k=%d: MeanBER grids diverge", k)
			}
		}
	})

	t.Run(StudyNameWordAnalysis, func(t *testing.T) {
		direct, err := RunWordAnalysis(ctx, o)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 2; k++ {
			st, err := AssembleWordAnalysis(o, runStudyViaUnits(t, o, StudyNameWordAnalysis, k))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(st, direct) {
				t.Errorf("k=%d: assembled word analysis differs from direct driver", k)
			}
		}
	})

	t.Run(StudyNameCV, func(t *testing.T) {
		direct, err := RunCVStudy(ctx, o)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 2; k++ {
			st, err := AssembleCVStudy(o, runStudyViaUnits(t, o, StudyNameCV, k))
			if err != nil {
				t.Fatal(err)
			}
			if st.P90 != direct.P90 || st.P95 != direct.P95 || st.P99 != direct.P99 || st.CVs.N() != direct.CVs.N() {
				t.Errorf("k=%d: assembled CV study differs: %+v vs %+v", k, st, direct)
			}
		}
	})

	t.Run(StudyNameSpiceMC, func(t *testing.T) {
		direct, err := RunMCStudy(ctx, o)
		if err != nil {
			t.Fatal(err)
		}
		// k=2 splits the levels across two separate sweeps: per-level results
		// must match the all-levels-in-one-queue run exactly.
		for k := 1; k <= 2; k++ {
			st, err := AssembleMCStudy(o, runStudyViaUnits(t, o, StudyNameSpiceMC, k))
			if err != nil {
				t.Fatal(err)
			}
			want := renderStudy(t, direct.RenderFig8b) + renderStudy(t, direct.RenderFig9b)
			got := renderStudy(t, st.RenderFig8b) + renderStudy(t, st.RenderFig9b)
			if got != want {
				t.Errorf("k=%d: Fig. 8b/9b bytes diverge:\n--- direct ---\n%s\n--- units ---\n%s", k, want, got)
			}
		}
	})
}

// TestAssembleRejectsIncompleteOrForeignData: missing or surplus units fail
// loudly with the unit named.
func TestAssembleRejectsIncompleteOrForeignData(t *testing.T) {
	o := shardOptions()
	if _, err := AssembleCVStudy(o, map[string]json.RawMessage{}); err == nil {
		t.Error("empty data assembled")
	} else if !strings.Contains(err.Error(), "B3") {
		t.Errorf("error should name the missing unit: %v", err)
	}
	var d stats.Dist
	raw, _ := json.Marshal(d) //detlint:ignore sinkerr marshal of a zero-value fixture cannot fail
	data := map[string]json.RawMessage{"B3": raw, "C0": raw, "A9": raw}
	if _, err := AssembleCVStudy(o, data); err == nil {
		t.Error("surplus unit assembled")
	}
	bad := map[string]json.RawMessage{"B3": json.RawMessage(`{"moments":`), "C0": raw}
	if _, err := AssembleCVStudy(o, bad); err == nil {
		t.Error("corrupt payload assembled")
	}
	// Wire partials naming modules outside the catalog are rejected.
	w, _ := json.Marshal(moduleSweepWire{Module: "ZZ"}) //detlint:ignore sinkerr marshal of a literal fixture cannot fail
	rhData := map[string]json.RawMessage{"B3": w, "C0": w}
	if _, err := AssembleRowHammerStudy(o, rhData); err == nil {
		t.Error("unknown module in sweep partial accepted")
	}
}

func TestValidateRejectsNegativeJobs(t *testing.T) {
	o := shardOptions()
	o.Jobs = -1
	err := o.Validate()
	if err == nil {
		t.Fatal("negative Jobs accepted")
	}
	if !strings.Contains(err.Error(), "-1") {
		t.Errorf("error should name the offending value: %v", err)
	}
	o.Jobs = 0
	if err := o.Validate(); err != nil {
		t.Errorf("Jobs=0 rejected: %v", err)
	}
}

// TestValidateRejectsNegativeSizes covers the campaign-size knobs: a negative
// value is rejected with an error naming the field, the value and the
// accepted range, while zero (the smallest accepted value) and the presets'
// own values pass.
func TestValidateRejectsNegativeSizes(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*Options, int)
	}{
		{"SpiceMCRuns", func(o *Options, v int) { o.SpiceMCRuns = v }},
		{"Chunks", func(o *Options, v int) { o.Chunks = v }},
		{"RowsPerChunk", func(o *Options, v int) { o.RowsPerChunk = v }},
		{"VPPStride", func(o *Options, v int) { o.VPPStride = v }},
	} {
		o := shardOptions()
		tc.set(&o, -5)
		err := o.Validate()
		if err == nil {
			t.Errorf("%s=-5 accepted", tc.field)
			continue
		}
		for _, want := range []string{tc.field + " -5", "accepted range: 0 or more"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s=-5: error %q does not contain %q", tc.field, err, want)
			}
		}
		tc.set(&o, 0)
		if err := o.Validate(); err != nil {
			t.Errorf("%s=0 rejected: %v", tc.field, err)
		}
	}
	for _, o := range []Options{Default(), Paper()} {
		if err := o.Validate(); err != nil {
			t.Errorf("preset rejected: %v", err)
		}
	}
}

// TestValidateRejectsOversizedRowSelection: more Chunks than rows per bank,
// or RowsPerChunk past a chunk's even share of the bank, is rejected naming
// the field, the value and the accepted range; the largest accepted sizes
// pass. Such selections used to repeat rows, or overflow the row list's
// capacity and panic.
func TestValidateRejectsOversizedRowSelection(t *testing.T) {
	o := shardOptions()
	bank := o.Geometry.RowsPerBank
	for _, tc := range []struct {
		chunks, perChunk int
		want             string
	}{
		{bank + 1, 1, fmt.Sprintf("Chunks %d is out of range (accepted range: 0 to %d, the rows per bank)", bank+1, bank)},
		{3037000500, 3037000500, fmt.Sprintf("Chunks 3037000500 is out of range (accepted range: 0 to %d", bank)},
		{2, bank/2 + 1, fmt.Sprintf("RowsPerChunk %d is out of range (accepted range: 0 to %d, the rows per bank / Chunks)", bank/2+1, bank/2)},
		{2, 100000000000, fmt.Sprintf("RowsPerChunk 100000000000 is out of range (accepted range: 0 to %d", bank/2)},
	} {
		o.Chunks, o.RowsPerChunk = tc.chunks, tc.perChunk
		if err := o.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Chunks=%d RowsPerChunk=%d: Validate() = %v, want an error containing %q", tc.chunks, tc.perChunk, err, tc.want)
		}
	}
	for _, tc := range []struct{ chunks, perChunk int }{{bank, 1}, {2, bank / 2}, {0, bank + 1}, {3, bank / 3}} {
		o.Chunks, o.RowsPerChunk = tc.chunks, tc.perChunk
		if err := o.Validate(); err != nil {
			t.Errorf("Chunks=%d RowsPerChunk=%d rejected: %v", tc.chunks, tc.perChunk, err)
		}
	}
}

// TestValidateCapsCampaignSize: SpiceMCRuns and Jobs past their caps are
// rejected naming the field, the value and the accepted range, while the
// caps themselves pass.
func TestValidateCapsCampaignSize(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*Options, int)
		limit int
		want  string
	}{
		{"SpiceMCRuns", func(o *Options, v int) { o.SpiceMCRuns = v }, MaxSpiceMCRuns,
			fmt.Sprintf("(accepted range: 0 to %d Monte-Carlo runs per VPP level)", MaxSpiceMCRuns)},
		{"Jobs", func(o *Options, v int) { o.Jobs = v }, MaxJobs,
			fmt.Sprintf("(accepted range: 0 for one worker per CPU, or 1 to %d workers)", MaxJobs)},
	} {
		for _, v := range []int{tc.limit + 1, 50_000_000, 1 << 30} {
			o := shardOptions()
			tc.set(&o, v)
			want := fmt.Sprintf("%s %d is out of range %s", tc.field, v, tc.want)
			if err := o.Validate(); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s=%d: Validate() = %v, want an error containing %q", tc.field, v, err, want)
			}
		}
		o := shardOptions()
		tc.set(&o, tc.limit)
		if err := o.Validate(); err != nil {
			t.Errorf("%s=%d rejected: %v", tc.field, tc.limit, err)
		}
	}
}

// TestValidateRejectsBadRetentionLevels: an empty level list, a level that
// is not a finite voltage inside the supply's range, and a level repeated
// (to the supply's 1 mV resolution) are rejected naming the field and the
// accepted range. A level of -1 V used to render a Fig. 10a plot with a BER
// of 1, and NaN or 3.5 V to fail only mid-campaign.
func TestValidateRejectsBadRetentionLevels(t *testing.T) {
	const accepted = "(accepted range: one or more distinct finite levels from 0.5 to 3 V)"
	for _, tc := range []struct {
		levels []float64
		want   string
	}{
		{nil, "RetentionVPPLevels is empty " + accepted},
		{[]float64{}, "RetentionVPPLevels is empty " + accepted},
		{[]float64{-1}, "RetentionVPPLevels[0] -1 is out of range " + accepted},
		{[]float64{2.5, math.NaN()}, "RetentionVPPLevels[1] NaN is out of range " + accepted},
		{[]float64{3.5}, "RetentionVPPLevels[0] 3.5 is out of range " + accepted},
		{[]float64{0.4999}, "RetentionVPPLevels[0] 0.4999 is out of range " + accepted},
		{[]float64{math.Inf(1)}, "RetentionVPPLevels[0] +Inf is out of range " + accepted},
		{[]float64{math.Inf(-1)}, "RetentionVPPLevels[0] -Inf is out of range " + accepted},
		{[]float64{2.5, 1.9, 2.5}, "RetentionVPPLevels[2] 2.5 repeats RetentionVPPLevels[0] 2.5 " + accepted},
		{[]float64{1.9, 1.9001}, "RetentionVPPLevels[1] 1.9001 repeats RetentionVPPLevels[0] 1.9 " + accepted},
	} {
		o := shardOptions()
		o.RetentionVPPLevels = tc.levels
		if err := o.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("RetentionVPPLevels=%v: Validate() = %v, want an error containing %q", tc.levels, err, tc.want)
		}
	}
	for _, levels := range [][]float64{{0.5}, {3.0}, {2.5, 1.9, 1.5}, Paper().RetentionVPPLevels} {
		o := shardOptions()
		o.RetentionVPPLevels = levels
		if err := o.Validate(); err != nil {
			t.Errorf("RetentionVPPLevels=%v rejected: %v", levels, err)
		}
	}
}

// TestValidateRejectsInvalidGeometry: Validate rejects an unusable geometry
// with an error naming the field, the value and the accepted range. A
// 32-byte row (half a column burst) would otherwise panic with a slice
// bounds error on the first row read.
func TestValidateRejectsInvalidGeometry(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*Options)
		want  string
	}{
		{"RowBytes", func(o *Options) { o.Geometry.RowBytes = 32 }, "Geometry.RowBytes 32 is out of range (accepted range: 64 or more, a multiple of the 64-byte column burst)"},
		{"RowBytes", func(o *Options) { o.Geometry.RowBytes = 100 }, "Geometry.RowBytes 100"},
		{"Banks", func(o *Options) { o.Geometry.Banks = 0 }, "Geometry.Banks 0 is out of range (accepted range: 1 or more"},
		{"RowsPerBank", func(o *Options) { o.Geometry.RowsPerBank = 0 }, "Geometry.RowsPerBank 0"},
		{"SubarrayRows", func(o *Options) { o.Geometry.SubarrayRows = 0 }, "Geometry.SubarrayRows 0"},
	} {
		o := shardOptions()
		tc.set(&o)
		err := o.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want an error containing %q", tc.field, err, tc.want)
		}
	}
	o := shardOptions()
	o.Geometry.RowBytes = 64
	if err := o.Validate(); err != nil {
		t.Errorf("one-burst rows rejected: %v", err)
	}
}

// TestMCLevelKeysUnique guards the unit-key encoding: every sweep level must
// format to a distinct key, or artifact units would collide.
func TestMCLevelKeysUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, vpp := range spiceSweepVPPs {
		k := mcLevelKey(vpp)
		if seen[k] {
			t.Fatalf("duplicate MC level key %q", k)
		}
		seen[k] = true
	}
	if !seen[fmt.Sprintf("%.1f", 2.5)] {
		t.Error("nominal level missing")
	}
}

// TestAssembleRetentionRejectsMalformedGrid: a corrupt artifact whose window
// dimension disagrees with the campaign grid must error, not panic.
func TestAssembleRetentionRejectsMalformedGrid(t *testing.T) {
	o := shardOptions()
	vpps, windows, _ := retentionGrid(o)
	mk := func(winCols int) json.RawMessage {
		m := ModuleRetention{Module: "B3", Sum: make([][]float64, len(vpps)),
			Count: make([][]int, len(vpps)), Rows: make([]stats.Moments, len(vpps))}
		for i := range m.Sum {
			m.Sum[i] = make([]float64, winCols)
			m.Count[i] = make([]int, winCols)
		}
		raw, _ := json.Marshal(m) //detlint:ignore sinkerr marshal of an all-numeric fixture cannot fail
		return raw
	}
	good := mk(len(windows))
	data := map[string]json.RawMessage{"B3": mk(len(windows) + 2), "C0": good}
	if _, err := AssembleRetentionStudy(o, data); err == nil {
		t.Error("extra window column accepted")
	} else if !strings.Contains(err.Error(), "window") {
		t.Errorf("error should name the window mismatch: %v", err)
	}
	if _, err := AssembleRetentionStudy(o, map[string]json.RawMessage{"B3": good, "C0": good}); err != nil {
		t.Errorf("well-formed partials rejected: %v", err)
	}
}
