// Command spicebench measures the SPICE solver's headline throughput —
// transient steps per second and Monte-Carlo runs per second, incremental
// engine vs the dense finite-difference reference — and writes a JSON
// snapshot. CI runs it on every change so the perf trajectory of the
// hottest path in the repository is recorded next to the code
// (BENCH_spice.json at the repository root holds the latest committed
// snapshot).
//
//	spicebench -out BENCH_spice.json
//	spicebench -runs 64 -jobs 4
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/dramstudy/rhvpp"
	"github.com/dramstudy/rhvpp/internal/spice"
)

// Snapshot is the serialized benchmark result.
type Snapshot struct {
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`

	// Transient-step throughput on the Table 2 netlist at nominal VPP.
	// "Per step" means per base-grid cell covered, so the adaptive figure
	// folds the coarse-stepping reduction in.
	StepNSAdaptive    float64 `json:"transient_step_ns_adaptive"`
	StepNSIncremental float64 `json:"transient_step_ns_incremental"`
	StepNSReference   float64 `json:"transient_step_ns_reference"`
	StepSpeedup       float64 `json:"transient_step_speedup"`
	StepSpeedupAdapt  float64 `json:"transient_step_speedup_adaptive"`

	// Adaptive step-count reduction over the Fig. 8a/9a sweep (all nine
	// VPP levels): implicit solves saved overall, and cells-per-solve on
	// the quiescent stretches alone (the accepted coarse steps) — the
	// acceptance floor for the latter is 3x.
	AdaptiveStepReduction      float64 `json:"adaptive_step_reduction_sweep"`
	AdaptiveQuiescentReduction float64 `json:"adaptive_quiescent_step_reduction"`

	// Monte-Carlo campaign throughput at 2.0 V, ±5% variation. The jobs1
	// figure runs the default adaptive engine (best-of-3); the fixed-grid
	// variant is the A/B at the same worker count (2.0 V has a short
	// quiescent tail, so the adaptive win concentrates in the lower-VPP
	// levels that dominate the real sweep — see mc_agg_runs_per_sec).
	MCRunsPerSecReference  float64 `json:"mc_runs_per_sec_serial_reference"`
	MCRunsPerSecJobs1Fixed float64 `json:"mc_runs_per_sec_jobs1_fixed_grid"`
	MCRunsPerSecJobs1      float64 `json:"mc_runs_per_sec_jobs1"`
	MCRunsPerSecJobs       float64 `json:"mc_runs_per_sec_jobs"`
	MCJobs                 int     `json:"mc_jobs"`
	MCSpeedupJobs1         float64 `json:"mc_speedup_jobs1_vs_reference"`
	MCSpeedupJobs          float64 `json:"mc_speedup_jobs_vs_reference"`

	// Full Fig. 8b/9b-style aggregate: one global run queue across a VPP
	// sweep, streaming aggregation, per-worker workspace reuse. BytesPerRun
	// is total heap allocation divided by runs — the streaming-statistics
	// memory-bound metric (pre-streaming, aggregation bytes grew with every
	// retained sample; now the bytes are simulation transients only).
	MCAggRunsPerSec  float64 `json:"mc_agg_runs_per_sec"`
	MCAggLevels      int     `json:"mc_agg_levels"`
	MCAggBytesPerRun float64 `json:"mc_agg_bytes_per_run"`

	// Sharded campaign pipeline end to end: the full SPICE Monte-Carlo study
	// split into 2 shard artifacts (plan -> run -> encode), file-decoded and
	// merged back into a rendered-ready campaign. Runs/s over the whole
	// pipeline, so the serialization + merge overhead of sharding is visible
	// next to the raw in-process MC throughput above.
	ShardMergeRunsPerSec float64 `json:"shard_merge_runs_per_sec"`
	ShardMergeShards     int     `json:"shard_merge_shards"`

	// DetlintNSPerPkg is the static-analysis suite's cost (wall time per
	// package of a clean full-repo run), recorded by `detlint -bench` into
	// the same snapshot. spicebench does not measure it; it carries the
	// last recorded value through its own rewrites so the field survives a
	// baseline refresh.
	DetlintNSPerPkg float64 `json:"detlint_ns_per_pkg,omitempty"`
	// DetlintAnalyzerNSPerPkg is the per-analyzer breakdown of the same
	// run, keyed by analyzer name; carried through rewrites like the
	// total.
	DetlintAnalyzerNSPerPkg map[string]float64 `json:"detlint_analyzer_ns_per_pkg,omitempty"`
}

func main() {
	var (
		out  = flag.String("out", "", "write the JSON snapshot to this file (default stdout)")
		runs = flag.Int("runs", 48, "Monte-Carlo runs per measurement")
		jobs = flag.Int("jobs", 4, "worker count for the parallel Monte-Carlo measurement")
	)
	flag.Parse()

	snap, err := measure(*runs, *jobs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spicebench:", err)
		os.Exit(1)
	}
	if *out != "" {
		// Refreshing a committed baseline must not drop the fields other
		// tools recorded into it (detlint -bench).
		if prev, err := os.ReadFile(*out); err == nil {
			var old Snapshot
			if json.Unmarshal(prev, &old) == nil {
				snap.DetlintNSPerPkg = old.DetlintNSPerPkg
				snap.DetlintAnalyzerNSPerPkg = old.DetlintAnalyzerNSPerPkg
			}
		}
	}
	enc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "spicebench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(enc); err != nil {
			fmt.Fprintln(os.Stderr, "spicebench:", err)
			os.Exit(1)
		}
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "spicebench:", err)
		os.Exit(1)
	}
}

func measure(runs, jobs int) (Snapshot, error) {
	snap := Snapshot{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		MCJobs:    jobs,
	}

	// Transient step cost: one full nominal-VPP activation per engine,
	// repeated until the measurement is stable enough to quote.
	var err error
	snap.StepNSAdaptive, err = stepCost(spice.SimulateActivation)
	if err != nil {
		return snap, err
	}
	snap.StepNSIncremental, err = stepCost(fixedGridActivation)
	if err != nil {
		return snap, err
	}
	snap.StepNSReference, err = stepCost(spice.SimulateActivationReference)
	if err != nil {
		return snap, err
	}
	snap.StepSpeedup = ratio(snap.StepNSReference, snap.StepNSIncremental)
	snap.StepSpeedupAdapt = ratio(snap.StepNSReference, snap.StepNSAdaptive)

	snap.AdaptiveStepReduction, snap.AdaptiveQuiescentReduction, err = adaptiveReduction()
	if err != nil {
		return snap, err
	}

	ref, err := mcThroughput(spice.MCConfig{Runs: runs, Jobs: 1, Reference: true})
	if err != nil {
		return snap, err
	}
	snap.MCRunsPerSecJobs1Fixed, err = mcThroughput(spice.MCConfig{Runs: runs, Jobs: 1, FixedGrid: true})
	if err != nil {
		return snap, err
	}
	one, err := bestOf(3, spice.MCConfig{Runs: runs, Jobs: 1})
	if err != nil {
		return snap, err
	}
	many, err := mcThroughput(spice.MCConfig{Runs: runs, Jobs: jobs})
	if err != nil {
		return snap, err
	}
	snap.MCRunsPerSecReference = ref
	snap.MCRunsPerSecJobs1 = one
	snap.MCRunsPerSecJobs = many
	snap.MCSpeedupJobs1 = ratio(one, ref)
	snap.MCSpeedupJobs = ratio(many, ref)

	aggRate, aggBytes, levels, err := mcAggregate(runs, jobs)
	if err != nil {
		return snap, err
	}
	snap.MCAggRunsPerSec = aggRate
	snap.MCAggBytesPerRun = aggBytes
	snap.MCAggLevels = levels

	snap.ShardMergeShards = 2
	snap.ShardMergeRunsPerSec, err = shardMergeThroughput(runs, jobs, snap.ShardMergeShards)
	if err != nil {
		return snap, err
	}
	return snap, nil
}

// shardMergeThroughput times the sharded-campaign pipeline end to end for
// the SPICE Monte-Carlo study: plan units, execute each shard, encode each
// artifact to bytes, decode them back (the file round trip), merge into a
// ready-to-render campaign. Returns total Monte-Carlo runs per second.
func shardMergeThroughput(runs, jobs, shards int) (float64, error) {
	o := rhvpp.DefaultOptions()
	o.SpiceMCRuns = runs
	o.Jobs = jobs
	units, err := rhvpp.PlanUnits(o, rhvpp.StudySpiceMC)
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	start := time.Now() //detlint:ignore detsource spicebench measures wall-clock throughput; timing is its output, not simulated state
	arts := make([]*rhvpp.ShardArtifact, shards)
	for i := range arts {
		part, err := rhvpp.ShardUnits(units, i, shards)
		if err != nil {
			return 0, err
		}
		art, err := rhvpp.RunShard(ctx, o, i, shards, part)
		if err != nil {
			return 0, err
		}
		var buf bytes.Buffer
		if err := rhvpp.EncodeArtifact(&buf, art); err != nil {
			return 0, err
		}
		if arts[i], err = rhvpp.DecodeArtifact(&buf); err != nil {
			return 0, err
		}
	}
	if _, err := rhvpp.MergeArtifacts(arts...); err != nil {
		return 0, err
	}
	total := float64(len(units) * runs)
	return total / time.Since(start).Seconds(), nil //detlint:ignore detsource spicebench measures wall-clock throughput; timing is its output, not simulated state
}

// mcAggregate measures the streaming aggregation pipeline end to end: a
// multi-level sweep through the single global run queue, reporting runs/s
// and heap bytes allocated per run.
func mcAggregate(runs, jobs int) (runsPerSec, bytesPerRun float64, levels int, err error) {
	vpps := []float64{2.5, 2.1, 1.9, 1.7}
	cfg := spice.MCConfig{Runs: runs, Seed: 2022, Variation: 0.05, Jobs: jobs}
	ctx := context.Background()
	warm := cfg
	warm.Runs = 2
	if _, err := spice.RunMonteCarloSweep(ctx, vpps, warm); err != nil {
		return 0, 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now() //detlint:ignore detsource spicebench measures wall-clock throughput; timing is its output, not simulated state
	if _, err := spice.RunMonteCarloSweep(ctx, vpps, cfg); err != nil {
		return 0, 0, 0, err
	}
	elapsed := time.Since(start).Seconds() //detlint:ignore detsource spicebench measures wall-clock throughput; timing is its output, not simulated state
	runtime.ReadMemStats(&after)
	total := float64(len(vpps) * runs)
	return total / elapsed, float64(after.TotalAlloc-before.TotalAlloc) / total, len(vpps), nil
}

// fixedGridActivation is SimulateActivation pinned to the fixed 25 ps grid.
func fixedGridActivation(p spice.CellParams, probe spice.Probe) (spice.ActivationResult, error) {
	p.Adaptive = spice.AdaptiveConfig{}
	return spice.SimulateActivation(p, probe)
}

// stepCost times activations until ~100ms has elapsed and returns wall ns
// per base-grid cell covered (an adaptive engine covers cells with fewer
// solves, so its figure reflects the step-count reduction).
func stepCost(sim func(spice.CellParams, spice.Probe) (spice.ActivationResult, error)) (float64, error) {
	p := spice.DefaultCellParams(2.5)
	cells := 0
	start := time.Now()                            //detlint:ignore detsource spicebench measures wall-clock throughput; timing is its output, not simulated state
	for time.Since(start) < 100*time.Millisecond { //detlint:ignore detsource spicebench measures wall-clock throughput; timing is its output, not simulated state
		res, err := sim(p, nil)
		if err != nil {
			return 0, err
		}
		cells += res.Steps.Cells
	}
	if cells == 0 {
		return 0, fmt.Errorf("no steps executed")
	}
	return float64(time.Since(start).Nanoseconds()) / float64(cells), nil //detlint:ignore detsource spicebench measures wall-clock throughput; timing is its output, not simulated state
}

// adaptiveReduction aggregates the adaptive engine's step accounting over
// the Fig. 8a/9a sweep: total solve reduction vs the fixed grid, and
// cells-per-solve over the accepted coarse steps (the quiescent stretches).
func adaptiveReduction() (overall, quiescent float64, err error) {
	vpps := []float64{2.5, 2.4, 2.3, 2.2, 2.1, 2.0, 1.9, 1.8, 1.7}
	var solves, cells, coarseCells, coarseSolves int
	for _, vpp := range vpps {
		res, err := spice.SimulateActivation(spice.DefaultCellParams(vpp), nil)
		if err != nil {
			return 0, 0, fmt.Errorf("adaptive sweep at %.1fV: %w", vpp, err)
		}
		solves += res.Steps.Solves
		cells += res.Steps.Cells
		coarseCells += res.Steps.CoarseCells
		coarseSolves += res.Steps.CoarseSolves
	}
	return ratio(float64(cells), float64(solves)),
		ratio(float64(coarseCells), float64(coarseSolves)), nil
}

// bestOf returns the fastest of n mcThroughput measurements: on a busy
// machine a single descheduling stall would otherwise dominate a
// ~second-long wall-clock timing.
func bestOf(n int, cfg spice.MCConfig) (float64, error) {
	best := 0.0
	for i := 0; i < n; i++ {
		rate, err := mcThroughput(cfg)
		if err != nil {
			return 0, err
		}
		if rate > best {
			best = rate
		}
	}
	return best, nil
}

// mcThroughput returns Monte-Carlo runs per second for the configuration.
func mcThroughput(cfg spice.MCConfig) (float64, error) {
	cfg.VPP, cfg.Seed, cfg.Variation = 2.0, 2022, 0.05
	if _, err := spice.MonteCarlo(cfg.VPP, 2, cfg.Seed, cfg.Variation); err != nil { // warm-up
		return 0, err
	}
	start := time.Now() //detlint:ignore detsource spicebench measures wall-clock throughput; timing is its output, not simulated state
	if _, err := spice.RunMonteCarlo(context.Background(), cfg); err != nil {
		return 0, err
	}
	return float64(cfg.Runs) / time.Since(start).Seconds(), nil //detlint:ignore detsource spicebench measures wall-clock throughput; timing is its output, not simulated state
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
