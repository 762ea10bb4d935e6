package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"github.com/dramstudy/rhvpp"
	"github.com/dramstudy/rhvpp/internal/core"
	"github.com/dramstudy/rhvpp/internal/dram"
	"github.com/dramstudy/rhvpp/internal/infra"
	"github.com/dramstudy/rhvpp/internal/pattern"
	"github.com/dramstudy/rhvpp/internal/physics"
	"github.com/dramstudy/rhvpp/internal/rng"
	"github.com/dramstudy/rhvpp/internal/softmc"
	"github.com/dramstudy/rhvpp/internal/spice"
)

// timeEach runs fn reps times and returns the median duration of one call
// in the given unit (e.g. time.Millisecond).
func timeEach(reps int, unit time.Duration, fn func(i int) error) (float64, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(start))/float64(unit))
	}
	return median(ds), nil
}

// timeBatch runs fn n times per sample, takes 7 samples, and returns the
// median per-call time in nanoseconds: for calls too short to time alone.
func timeBatch(n int, fn func(i int)) float64 {
	ds := make([]float64, 0, 7)
	for s := 0; s < 7; s++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(s*n + i)
		}
		ds = append(ds, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(ds)
}

// probeLayers measures the layers under the Campaign — internal/core,
// softmc, dram, physics, rng and spice — by calling their public functions
// with the workload's own geometry, methodology config, row selection and
// VPP levels. The seed picks the module (among the workload's), the rows
// and the voltage.
func probeLayers(ctx context.Context, o rhvpp.Options, seed uint64, m metrics) error {
	rnd := rand.New(rand.NewPCG(seed, 0x6c61796572))
	names := o.ModuleNames
	if len(names) == 0 {
		for _, p := range rhvpp.Modules() {
			names = append(names, p.Name)
		}
	}
	prof, ok := physics.ProfileByName(names[rnd.IntN(len(names))])
	if !ok {
		return fmt.Errorf("layer probe: unknown module")
	}
	geom, cfg, bank := o.Geometry, o.Config, o.Config.Bank
	levels := prof.VPPLevels()
	vpp := levels[rnd.IntN(len(levels))]

	// internal/core: Alg. 1 on a RowHammer testbed, as the study builds it.
	tb := infra.NewTestbed(prof, geom, o.Seed)
	tester := core.NewTester(tb.Controller, cfg).WithContext(ctx)
	var victims []int
	rows := core.SelectRows(geom, o.Chunks, o.RowsPerChunk)
	off := rnd.IntN(len(rows))
	for i := 0; i < len(rows) && len(victims) < 3; i++ {
		r := rows[(off+i)%len(rows)]
		if _, _, err := tester.AggressorsFor(r); err == nil {
			victims = append(victims, r)
		}
	}
	if len(victims) == 0 {
		return fmt.Errorf("layer probe: module %s has no testable victim", prof.Name)
	}
	if err := tb.SetVPP(physics.VPPNominal); err != nil {
		return err
	}
	wcdp := make([]pattern.Kind, len(victims))
	for i, v := range victims {
		k, err := tester.SelectWCDP(v)
		if err != nil {
			return err
		}
		wcdp[i] = k
	}
	if err := tb.SetVPP(vpp); err != nil {
		return err
	}
	v, err := timeEach(len(victims), time.Millisecond, func(i int) error {
		_, err := tester.CharacterizeRow(victims[i], wcdp[i])
		return err
	})
	if err != nil {
		return err
	}
	m.set("core.characterize_row_ms", v, "ms")
	if v, err = timeEach(3*len(victims), time.Microsecond, func(i int) error {
		_, err := tester.MeasureBER(victims[i%len(victims)], wcdp[i%len(victims)], cfg.RefHC)
		return err
	}); err != nil {
		return err
	}
	m.set("core.measure_ber_us", v, "us")

	if err := probeTRCD(ctx, o, prof, vpp, rnd, m); err != nil {
		return err
	}
	if err := probeRetention(ctx, o, prof, rnd, m); err != nil {
		return err
	}

	// internal/softmc on the same testbed: a double-sided hammer, then the
	// data-comparison read of the hammered row after it has aged 64 ms.
	ctrl := tb.Controller
	victim := victims[0]
	lo, hi, err := tester.AggressorsFor(victim)
	if err != nil {
		return err
	}
	if v, err = timeEach(9, time.Microsecond, func(int) error {
		return ctrl.HammerDoubleSided(bank, lo, hi, cfg.RefHC)
	}); err != nil {
		return err
	}
	m.set("softmc.hammer_us", v, "us")
	hammerAndAge := func() error {
		if err := ctrl.InitializeRow(bank, victim, 0x55); err != nil {
			return err
		}
		if err := ctrl.HammerDoubleSided(bank, lo, hi, cfg.RefHC); err != nil {
			return err
		}
		return ctrl.WaitMS(64)
	}
	reads := make([]float64, 0, 9)
	for i := 0; i < 9; i++ {
		if err := hammerAndAge(); err != nil {
			return err
		}
		start := time.Now()
		if _, err := ctrl.ReadRowSafe(bank, victim); err != nil {
			return err
		}
		reads = append(reads, float64(time.Since(start).Nanoseconds())/1e3)
	}
	m.set("softmc.read_row_us", median(reads), "us")

	// internal/dram: the same read, one Module.Read burst per column, issued
	// directly on the module at the controller's clock.
	mod := ctrl.Module()
	timing := softmc.NominalTiming()
	bursts := make([]float64, 0, 9)
	for i := 0; i < 9; i++ {
		if err := hammerAndAge(); err != nil {
			return err
		}
		t := ctrl.Now()
		if err := mod.Activate(t, bank, victim); err != nil {
			return err
		}
		t += dram.NSToPS(3 * timing.TRCD)
		start := time.Now()
		for col := 0; col < geom.Columns(); col++ {
			if _, err := mod.Read(t, bank, col); err != nil {
				return err
			}
			t += dram.NSToPS(timing.TCCD)
		}
		bursts = append(bursts, float64(time.Since(start).Nanoseconds())/float64(geom.Columns()))
		if err := mod.Precharge(t+dram.NSToPS(timing.TRAS), bank); err != nil {
			return err
		}
		if err := ctrl.WaitMS(1); err != nil { // re-align the controller's clock past the module's
			return err
		}
	}
	m.set("dram.read_ns", median(bursts), "ns")
	m.set("dram.columns_per_row", float64(geom.Columns()), "count")

	// internal/physics: the device model's per-row flip computations that
	// every read runs.
	model := mod.Model()
	iters := max(cfg.Iterations, 1)
	m.set("physics.hammer_flip_count_ns", timeBatch(200, func(i int) {
		model.HammerFlipCount(bank, victims[i%len(victims)], wcdp[i%len(victims)], vpp, float64(cfg.RefHC), physics.RowHammerTestTempC, i%iters)
	}), "ns")
	m.set("physics.retention_flip_positions_ns", timeBatch(200, func(i int) {
		model.RetentionFlipPositions(bank, victims[i%len(victims)], vpp, 4096, physics.RetentionTestTempC, i%iters)
	}), "ns")
	m.set("physics.trcd_flip_positions_ns", timeBatch(200, func(i int) {
		model.TRCDFlipPositions(bank, victims[i%len(victims)], i%geom.Columns(), cfg.TRCDStartNS, vpp, i%iters)
	}), "ns")

	// internal/rng: one labeled stream derivation, as the device model
	// derives per-row noise, and its heap allocations.
	root := rng.New(o.Seed).Derive("module", prof.Name)
	m.set("rng.derive_ns", timeBatch(2000, func(i int) {
		root.Derive("hnoise", bank, victims[i%len(victims)], i%iters)
	}), "ns")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const allocCalls = 1000
	for i := 0; i < allocCalls; i++ {
		root.Derive("hnoise", bank, victims[i%len(victims)], i%iters)
	}
	runtime.ReadMemStats(&after)
	m.set("rng.derive_allocs", float64(after.Mallocs-before.Mallocs)/allocCalls, "count")

	return probeSpice(ctx, o, rnd, m)
}

// probeTRCD times one Alg. 2 row characterization on a tRCD testbed.
func probeTRCD(ctx context.Context, o rhvpp.Options, prof physics.ModuleProfile, vpp float64, rnd *rand.Rand, m metrics) error {
	tb := infra.NewTestbed(prof, o.Geometry, o.Seed)
	tester := core.NewTester(tb.Controller, o.Config).WithContext(ctx)
	all := core.SelectRows(o.Geometry, o.Chunks, 2)
	off := rnd.IntN(len(all))
	rows := make([]int, min(3, len(all)))
	for i := range rows {
		rows[i] = all[(off+i)%len(all)]
	}
	if err := tb.SetVPP(physics.VPPNominal); err != nil {
		return err
	}
	wcdp := make([]pattern.Kind, len(rows))
	for i, r := range rows {
		k, err := tester.SelectTRCDWCDP(r)
		if err != nil {
			return err
		}
		wcdp[i] = k
	}
	if err := tb.SetVPP(vpp); err != nil {
		return err
	}
	v, err := timeEach(len(rows), time.Millisecond, func(i int) error {
		_, err := tester.CharacterizeRowTRCD(rows[i], wcdp[i])
		return err
	})
	if err != nil {
		return err
	}
	m.set("core.trcd_row_ms", v, "ms")
	return nil
}

// probeRetention times one Alg. 3 refresh-window ladder for a row at one of
// the workload's retention voltages, at the retention test temperature.
func probeRetention(ctx context.Context, o rhvpp.Options, prof physics.ModuleProfile, rnd *rand.Rand, m metrics) error {
	tb := infra.NewTestbed(prof, o.Geometry, o.Seed)
	if err := tb.SetTemperature(physics.RetentionTestTempC); err != nil {
		return err
	}
	tester := core.NewTester(tb.Controller, o.Config).WithContext(ctx)
	var levels []float64
	for _, v := range o.RetentionVPPLevels {
		if v >= prof.VPPMin-1e-9 {
			levels = append(levels, v)
		}
	}
	if len(levels) == 0 {
		levels = []float64{physics.VPPNominal}
	}
	if err := tb.SetVPP(levels[rnd.IntN(len(levels))]); err != nil {
		return err
	}
	rows := core.SelectRows(o.Geometry, o.Chunks, o.RowsPerChunk)
	off := rnd.IntN(len(rows))
	v, err := timeEach(2, time.Millisecond, func(i int) error {
		_, err := tester.RetentionSweep(rows[(off+i)%len(rows)], pattern.CheckerAA)
		return err
	})
	if err != nil {
		return err
	}
	m.set("core.retention_row_ms", v, "ms")
	return nil
}

// probeSpice times Monte-Carlo runs at one of the workload's Fig. 8b/9b
// levels on one worker, with the study's ±5% variation.
func probeSpice(ctx context.Context, o rhvpp.Options, rnd *rand.Rand, m metrics) error {
	units, err := rhvpp.PlanUnits(o, rhvpp.StudySpiceMC)
	if err != nil {
		return err
	}
	var levels []float64
	for _, u := range units {
		v, err := strconv.ParseFloat(u.Key, 64)
		if err != nil {
			return fmt.Errorf("spice probe: level key %q: %w", u.Key, err)
		}
		levels = append(levels, v)
	}
	sort.Float64s(levels)
	const runs = 24
	cfg := spice.MCConfig{VPP: levels[rnd.IntN(len(levels))], Runs: runs, Seed: o.Seed, Variation: 0.05, Jobs: 1}
	v, err := timeEach(3, time.Microsecond, func(int) error {
		_, err := spice.RunMonteCarlo(ctx, cfg)
		return err
	})
	if err != nil {
		return err
	}
	m.set("spice.mc_run_us", v/runs, "us")
	return nil
}

// goldenProbe measures, on the golden scope (the pinned regression
// campaign), every layer a workload does not exercise itself, so each traced
// run reports every per-layer key: the study accessors, render and units
// over the full catalog; the shard path (RunShard, EncodeArtifact,
// DecodeArtifact, MergeArtifacts); the artifact store; and, unless the
// workload served requests itself, a short server session. Values the
// workload already recorded are kept. Its outputs are checked against
// testdata/golden and counted as operations.
func goldenProbe(ctx context.Context, cfg *runConfig, t *tally, m metrics) error {
	root := cfg.tr.begin("probe.golden", "", -1)
	defer cfg.tr.end(root)
	golden, err := goldenOutputs(cfg.root)
	if err != nil {
		return err
	}
	o := rhvpp.GoldenOptions()
	o.Jobs = 2

	g := batchWorkload{name: "golden", ids: catalogIDs()}
	runner := &timingRunner{tr: cfg.tr}
	out, err := g.rep(ctx, o, cfg.tr, runner)
	if err != nil {
		return err
	}
	sections := make(map[string]string, len(g.ids))
	for i, id := range g.ids {
		sections[id] = digest(out.sections[i])
	}
	wantSections, err := splitSections(golden["all."+string(rhvpp.FormatText)])
	if err != nil {
		return err
	}
	want := make(map[string]string, len(wantSections))
	for id, sec := range wantSections {
		want[id] = digest(sec)
	}
	g.tally(out, newDigestChecker(want), t)
	studySelf := make(map[string]float64)
	var render float64
	for _, s := range cfg.tr.snapshot() {
		if s.Parent == out.root && s.Name == "study" {
			studySelf[s.ID] = float64(s.dur()) / 1e9
		}
		if s.Parent == out.root && s.Name == "render" {
			render += float64(s.dur()) / 1e9
		}
	}
	for _, key := range studyKeys {
		m.setDefault("study_s."+key, studySelf[key], "s")
	}
	m.setDefault("render_s", render, "s")
	units := runner.unitSeconds()
	m.setDefault("unit_s.p50", median(units), "s")
	m.setDefault("unit_s.max", quantile(units, 1), "s")

	// The shard path: one complete shard, serialized, read back and merged.
	plan, err := rhvpp.PlanUnits(o)
	if err != nil {
		return err
	}
	sp := cfg.tr.begin("shard.run", "", root)
	art, err := rhvpp.RunShard(ctx, o, 0, 1, plan)
	cfg.tr.end(sp)
	if err != nil {
		return err
	}
	var raw bytes.Buffer
	enc, err := timeEach(5, time.Millisecond, func(int) error {
		raw.Reset()
		return rhvpp.EncodeArtifact(&raw, art)
	})
	if err != nil {
		return err
	}
	var decoded *rhvpp.ShardArtifact
	dec, err := timeEach(5, time.Millisecond, func(int) error {
		var err error
		decoded, err = rhvpp.DecodeArtifact(bytes.NewReader(raw.Bytes()))
		return err
	})
	if err != nil {
		return err
	}
	var merged *rhvpp.Campaign
	mrg, err := timeEach(5, time.Millisecond, func(int) error {
		var err error
		merged, err = rhvpp.MergeArtifacts(decoded)
		return err
	})
	if err != nil {
		return err
	}
	m.set("shard.encode_ms", enc, "ms")
	m.set("shard.decode_ms", dec, "ms")
	m.set("shard.merge_ms", mrg, "ms")
	m.set("shard.artifact_kb", float64(raw.Len())/1024, "KiB")
	var table3 bytes.Buffer
	encT, err := rhvpp.NewEncoder(rhvpp.FormatText, &table3)
	if err == nil {
		err = merged.Run(ctx, "table3", encT)
	}
	if err == nil && !bytes.Equal(table3.Bytes(), golden["table3."+string(rhvpp.FormatText)]) {
		err = fmt.Errorf("merged shard artifact: table3 differs from testdata/golden")
	}
	t.record(err)

	// The artifact store: Put and Get of the same complete artifact.
	st, err := rhvpp.OpenArtifactStore(filepath.Join(cfg.out, "probe-store"))
	if err != nil {
		return err
	}
	fp, err := rhvpp.OptionsFingerprint(o)
	if err != nil {
		return err
	}
	put, err := timeEach(5, time.Millisecond, func(int) error { return st.Put(fp, art) })
	if err != nil {
		return err
	}
	get, err := timeEach(5, time.Millisecond, func(int) error {
		_, err := st.Get(fp)
		return err
	})
	if err != nil {
		return err
	}
	m.set("artifact.put_ms", put, "ms")
	m.set("artifact.get_ms", get, "ms")

	if _, served := m["serve.mem_hits"]; served {
		return nil
	}
	check, err := newServeChecker(cfg)
	if err != nil {
		return err
	}
	sess := serveSession{
		dir: filepath.Join(cfg.out, "probe-serve"), script: probeScript(), clients: 1,
		sessionCap: 1, check: check, t: t, tr: cfg.tr,
	}
	sout, err := sess.run(ctx)
	if err != nil {
		return err
	}
	setServeMetrics(m, sout, len(sess.script))
	return nil
}

// probeScript is a one-client request sequence over two golden-scope
// campaigns with a one-campaign session cache: each campaign computes once,
// repeats are memory hits, and alternating between them forces disk hits.
func probeScript() []request {
	const a, b = 0, 1
	text, json, csv := rhvpp.FormatText, rhvpp.FormatJSON, rhvpp.FormatCSV
	s := []request{{a, "table3", text}, {a, "fig5", json}, {a, "fig7", csv}, {a, "summary", text}, {a, "fig10a", json},
		{b, "table3", text}, {b, "fig3", csv}, {b, "fig11", json}, {b, "guardband", text}, {b, "fig8b", csv}}
	for i := 0; i < 4; i++ {
		s = append(s, request{a, "fig4", text}, request{a, "cv", csv}, request{b, "fig6", json}, request{b, "fig9b", text})
	}
	return s
}
