package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/dramstudy/rhvpp"
)

// setupReps is how many times a batch workload builds its session before
// the timed run; setup_s is the median. One set-up takes tens of
// microseconds, so the repetitions must span enough time (~0.1 s) that a
// single preemption or collection covers only a few of them.
const setupReps = 2000

// batchWorkload renders a fixed list of experiments through one Campaign,
// the way `rhvpp -exp` does: each experiment first triggers the studies it
// needs (memoized across the list), then renders as text.
type batchWorkload struct {
	name string
	// ids are rendered in this order, which is catalog order.
	ids []string
	// options builds the campaign options from the workload seed.
	options func(seed uint64) rhvpp.Options
}

// campaignDefault is `rhvpp -exp all -jobs 2`: every study and every
// ablation at the default preset. Its device population stays at the
// preset's seed, the population the model is calibrated against, so
// paper_err keeps its meaning and wall_s measures the host, not sampling.
var campaignDefault = batchWorkload{
	name: "campaign_default",
	ids:  catalogIDs(),
	options: func(uint64) rhvpp.Options {
		o := rhvpp.DefaultOptions()
		o.Jobs = 2
		return o
	},
}

// paperSlice is the table3/fig7/fig10a studies at the paper preset on module
// B3: 128 columns per row and the paper's Alg. 1 grid (10 iterations, 100-HC
// terminal step), on two chunks of two rows so one pass takes about ten
// seconds. The population is pinned like campaignDefault's.
var paperSlice = batchWorkload{
	name: "paper_slice",
	ids:  []string{"table3", "fig7", "fig10a"},
	options: func(uint64) rhvpp.Options {
		o := rhvpp.PaperOptions()
		o.ModuleNames = []string{"B3"}
		o.Chunks, o.RowsPerChunk = 2, 2
		o.Jobs = 2
		return o
	},
}

// spiceMC is fig8b and fig9b at the default preset with the Monte-Carlo
// raised to 600 runs per level, at jobs 2. The workload seed is the
// Monte-Carlo population's seed.
var spiceMC = batchWorkload{
	name: "spice_mc",
	ids:  []string{"fig8b", "fig9b"},
	options: func(seed uint64) rhvpp.Options {
		o := rhvpp.DefaultOptions()
		o.Seed = seed
		o.SpiceMCRuns = 600
		o.Jobs = 2
		return o
	},
}

var batchByName = map[string]batchWorkload{
	campaignDefault.name: campaignDefault,
	paperSlice.name:      paperSlice,
	spiceMC.name:         spiceMC,
}

func catalogIDs() []string {
	var ids []string
	for _, e := range rhvpp.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// tinyOptions shrinks a workload's options to a sub-second campaign on
// module B3 for the self-tests, keeping its seed and worker count.
func tinyOptions(o rhvpp.Options) rhvpp.Options {
	t := rhvpp.GoldenOptions()
	t.Seed, t.Jobs = o.Seed, o.Jobs
	t.Chunks, t.RowsPerChunk = 1, 2
	t.ModuleNames = []string{"B3"}
	t.SpiceMCRuns = 4
	t.RetentionVPPLevels = []float64{2.5, 1.9}
	return t
}

// studyKeys names each study in metric keys.
var studyKeys = map[rhvpp.Study]string{
	rhvpp.StudyCV:           "cv",
	rhvpp.StudyRowHammer:    "rowhammer",
	rhvpp.StudyTRCD:         "trcd",
	rhvpp.StudyRetention:    "retention",
	rhvpp.StudyWordAnalysis: "word_analysis",
	rhvpp.StudyWaveforms:    "waveforms",
	rhvpp.StudySpiceMC:      "spice_mc",
}

// computeStudy calls the Campaign accessor of one study.
func computeStudy(ctx context.Context, c *rhvpp.Campaign, s rhvpp.Study) error {
	var err error
	switch s {
	case rhvpp.StudyCV:
		_, err = c.CV(ctx)
	case rhvpp.StudyRowHammer:
		_, err = c.RowHammer(ctx)
	case rhvpp.StudyTRCD:
		_, err = c.TRCD(ctx)
	case rhvpp.StudyRetention:
		_, err = c.Retention(ctx)
	case rhvpp.StudyWordAnalysis:
		_, err = c.WordAnalysis(ctx)
	case rhvpp.StudyWaveforms:
		_, err = c.SpiceWaveforms(ctx)
	case rhvpp.StudySpiceMC:
		_, err = c.SpiceMC(ctx)
	default:
		err = fmt.Errorf("no accessor for study %q", s)
	}
	return err
}

// repOut is one pass over a batch workload's experiments.
type repOut struct {
	camp *rhvpp.Campaign
	// wall runs from the first study call to the last rendered byte.
	wall time.Duration
	// Per experiment, in w.ids order: rendered section ("== id ==" banner
	// plus text) and error.
	sections [][]byte
	errs     []error
	// studies lists the studies computed, in order; root is the pass's
	// span in a traced pass.
	studies []rhvpp.Study
	root    int
}

// rep runs one pass on a fresh Campaign. With a tracer it records a span
// per study accessor and per render under one root span, and runs units
// through the timing runner.
func (w batchWorkload) rep(ctx context.Context, o rhvpp.Options, tr *tracer, runner *timingRunner) (repOut, error) {
	c, err := rhvpp.NewCampaign(o)
	if err != nil {
		return repOut{}, err
	}
	out := repOut{camp: c, root: -1}
	if runner != nil {
		c.WithRunner(runner)
		c.WithProgress(func(ev rhvpp.ProgressEvent) {
			tr.event("progress", ev.Study+"/"+ev.Key, int(runner.parent.Load()))
		})
	}
	done := make(map[rhvpp.Study]bool)
	var buf bytes.Buffer
	ends := make([]int, 0, len(w.ids))
	out.root = tr.begin("campaign", w.name, -1)
	start := time.Now()
	for _, id := range w.ids {
		e, err := rhvpp.LookupExperiment(id)
		for _, s := range e.Studies {
			if err != nil || done[s] {
				continue
			}
			sp := tr.begin("study", studyKeys[s], out.root)
			if runner != nil {
				runner.parent.Store(int64(sp))
			}
			err = computeStudy(ctx, c, s)
			tr.end(sp)
			done[s] = true
			out.studies = append(out.studies, s)
		}
		if err == nil {
			sp := tr.begin("render", id, out.root)
			fmt.Fprintf(&buf, "== %s ==\n", id)
			var enc rhvpp.Encoder
			if enc, err = rhvpp.NewEncoder(rhvpp.FormatText, &buf); err == nil {
				err = c.Run(ctx, id, enc)
			}
			tr.end(sp)
		}
		out.errs = append(out.errs, err)
		ends = append(ends, buf.Len())
		if ctx.Err() != nil {
			return out, ctx.Err()
		}
	}
	out.wall = time.Since(start)
	tr.end(out.root)
	prev := 0
	for _, end := range ends {
		out.sections = append(out.sections, buf.Bytes()[prev:end])
		prev = end
	}
	return out, nil
}

// tally counts each experiment of a pass as one operation: it fails on an
// error or when its section's digest disagrees with the reference.
func (w batchWorkload) tally(out repOut, check *digestChecker, t *tally) {
	for i, id := range w.ids {
		err := out.errs[i]
		if err == nil {
			err = check.check(id, out.sections[i])
		} else {
			err = fmt.Errorf("%s: %w", id, err)
		}
		t.record(err)
	}
}

func (w batchWorkload) run(ctx context.Context, cfg *runConfig, t *tally, m metrics) error {
	o := w.options(cfg.seed)
	var want map[string]string
	if cfg.tiny {
		o = tinyOptions(o)
	} else {
		want = cfg.refs.lookup(w.name, o.Seed)
	}
	check := newDigestChecker(want)

	setup := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if _, err := rhvpp.NewCampaign(o); err != nil {
			return err
		}
		if _, err := rhvpp.PlanUnits(o); err != nil {
			return err
		}
		setup = append(setup, time.Since(start).Seconds())
	}

	// Untraced passes: repeated until --seconds have elapsed (one pass in a
	// traced run, as the baseline for trace.overhead_pct).
	var cpus []float64
	var first repOut
	var firstHost passHost
	var s5 *section5
	deadline := time.Now().Add(cfg.seconds)
	for pass := 0; pass == 0 || (!cfg.trace && time.Now().Before(deadline)); pass++ {
		var out repOut
		h, err := measurePass(func() (err error) {
			out, err = w.rep(ctx, o, nil, nil)
			return err
		})
		if err != nil {
			return err
		}
		w.tally(out, check, t)
		cpus = append(cpus, h.cpuS)
		if pass == 0 {
			first, firstHost = out, h
		}
		if s5 == nil && slices.Contains(out.studies, rhvpp.StudyRowHammer) {
			st, err := out.camp.RowHammer(ctx) // memoized: no work
			if err != nil {
				return err
			}
			s5 = section5Of(st)
		}
	}
	for _, d := range check.unreferenced() {
		fmt.Fprintf(cfg.log, "campaignbench: %s seed %d digest (no reference recorded): %s\n", w.name, cfg.seed, d)
	}

	if !cfg.trace {
		m.set("setup_s", median(setup), "s")
		m.set("cpu_s", median(cpus), "s")
		if s5 == nil {
			// The workload runs no RowHammer study: report the golden scope's.
			c, err := rhvpp.NewCampaign(rhvpp.GoldenOptions())
			if err != nil {
				return err
			}
			st, err := c.RowHammer(ctx)
			if err != nil {
				return err
			}
			s5 = section5Of(st)
		}
		s5.set(m)
		return nil
	}

	// Wall-clock and memory metrics of the untraced pass. A batch pass is one request
	// for the workload's experiment list, as one `rhvpp -exp` invocation
	// is, so the request metrics restate the pass time: per-experiment
	// latencies are bimodal (a render takes microseconds, the experiment
	// that triggers a study takes seconds) and their median would jump
	// between the two modes.
	wall := first.wall.Seconds()
	setPassMetrics(m, wall, 1/wall, 1e3*wall, 1e3*wall, firstHost)

	runner := &timingRunner{tr: cfg.tr}
	traced, err := w.rep(ctx, o, cfg.tr, runner)
	if err != nil {
		return err
	}
	w.tally(traced, check, t)
	spans := cfg.tr.snapshot()
	for _, s := range spans {
		if s.Parent == traced.root && s.Name == "study" {
			m.set("study_s."+s.ID, float64(s.dur())/1e9, "s")
		}
		if s.Parent == traced.root && s.Name == "render" {
			m.set("render_s", m["render_s"].Value+float64(s.dur())/1e9, "s")
		}
	}
	if units := runner.unitSeconds(); len(units) > 0 {
		m.set("unit_s.p50", median(units), "s")
		m.set("unit_s.max", quantile(units, 1), "s")
	}
	m.set("trace.overhead_pct", 100*(traced.wall.Seconds()-wall)/wall, "%")
	m.set("trace.unaccounted_pct", unaccountedPct(spans, traced.root), "%")
	runs, noConv, err := mcCounts(ctx, traced)
	if err != nil {
		return err
	}
	m.set("spice.mc_runs", float64(runs), "count")
	m.set("spice.no_converge", float64(noConv), "count")
	if err := encodeProbe(ctx, traced.camp, w.ids, m); err != nil {
		return err
	}
	if err := probeLayers(ctx, o, cfg.seed, m); err != nil {
		return err
	}
	return goldenProbe(ctx, cfg, t, m)
}

// mcCounts sums the Monte-Carlo runs and non-converged runs of a pass that
// computed the SPICE Monte-Carlo study (zero otherwise).
func mcCounts(ctx context.Context, out repOut) (runs, noConverge int, err error) {
	for _, s := range out.studies {
		if s != rhvpp.StudySpiceMC {
			continue
		}
		st, err := out.camp.SpiceMC(ctx)
		if err != nil {
			return 0, 0, err
		}
		for _, r := range st.Results {
			runs += r.Runs
			noConverge += r.NoConverge
		}
	}
	return runs, noConverge, nil
}

// encodeProbe times rendering the workload's study-backed experiments from
// the pass's memoized campaign in each format: encoder cost without any
// study or self-computing ablation in it.
func encodeProbe(ctx context.Context, c *rhvpp.Campaign, ids []string, m metrics) error {
	var backed []string
	for _, id := range ids {
		if e, ok := rhvpp.ExperimentByID(id); ok && len(e.Studies) > 0 {
			backed = append(backed, id)
		}
	}
	for _, f := range rhvpp.Formats() {
		var times []float64
		for i := 0; i < 5; i++ {
			var buf bytes.Buffer
			start := time.Now()
			for _, id := range backed {
				enc, err := rhvpp.NewEncoder(f, &buf)
				if err == nil {
					err = c.Run(ctx, id, enc)
				}
				if err != nil {
					return fmt.Errorf("encode probe %s.%s: %w", id, f, err)
				}
			}
			times = append(times, time.Since(start).Seconds()*1e3)
		}
		m.set("report.encode_ms."+string(f), median(times), "ms")
	}
	return nil
}

// Section 5 means the paper reports: HCfirst +7.4% and BER -15.2% at VPPmin.
const (
	paperMeanHCIncreasePct = 7.4
	paperMeanBERChangePct  = -15.2
)

// section5 holds the reproduced Section 5 means paper_err compares.
type section5 struct{ meanHCIncreasePct, meanBERChangePct float64 }

func section5Of(st rhvpp.RowHammerStudy) *section5 {
	a := st.Section5Aggregates()
	return &section5{meanHCIncreasePct: a.MeanHCIncreasePct, meanBERChangePct: a.MeanBERChangePct}
}

// set records the gaps, in percentage points, between the reproduced means
// and the paper's.
func (s *section5) set(m metrics) {
	m.set("paper_err.hcfirst_mean_pp", math.Abs(s.meanHCIncreasePct-paperMeanHCIncreasePct), "pp")
	m.set("paper_err.ber_mean_pp", math.Abs(s.meanBERChangePct-paperMeanBERChangePct), "pp")
}

// setPassMetrics records the wall-clock and memory metrics of a traced
// run's untraced pass. They are per-layer metrics, not end-to-end ones,
// because on a shared host they follow the hypervisor's steal: see
// README.md.
func setPassMetrics(m metrics, wallS, reqPerS, p50ms, p99ms float64, h passHost) {
	m.set("wall_s", wallS, "s")
	m.set("req_per_s", reqPerS, "1/s")
	m.set("req_p50_ms", p50ms, "ms")
	m.set("req_p99_ms", p99ms, "ms")
	m.set("max_rss_mb", h.peakRSSMB, "MB")
	m.set("host.steal_pct", h.stealPct, "%")
}
