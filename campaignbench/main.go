// Command campaignbench is the repository's end-to-end benchmark. It drives
// the public rhvpp API — Campaign, Runner, the shard artifact path,
// CachedCampaign and the `rhvpp serve` handler over loopback HTTP — on one of
// four workloads, checks every output it produces against committed
// references, and prints one JSON result line.
//
//	campaignbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	campaignbench ab -a <checkout> -b <checkout> --workload <name> -n 10
//	campaignbench --workload <name> --seed <n> --record
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it runs the workload once untraced and once traced, probes each
// layer with the workload's own options, and reports the per-layer metrics.
// --record rewrites the workload's reference digests in
// campaignbench/testdata/reference.json from the program as it stands. See
// README.md for the workloads and the metric map.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// outDir, under the checkout's build directory, holds each run's scratch
// directory (artifact stores, removed at exit) and the trace files.
var outDir = filepath.Join(".bench_build", "campaignbench")

// defaultSeed is the workload seed the committed reference digests were
// recorded at. It equals the presets' Options.Seed, so `--seed 2022` on
// spice_mc reproduces `rhvpp -exp fig8b` byte for byte.
const defaultSeed = 2022

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// setDefault records a value only when the workload itself did not.
func (m metrics) setDefault(name string, v float64, unit string) {
	if _, ok := m[name]; !ok {
		m.set(name, v, unit)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// tally counts attempted and failed operations. An operation is one rendered
// experiment (batch workloads) or one HTTP request (serve_mixed). It is safe
// for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
}

func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.reasons) < 5 {
			t.reasons = append(t.reasons, err.Error())
		}
	}
}

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// root is the checkout root (the golden files live under it); out is a
	// private scratch directory for artifact stores and the trace file.
	root, out string
	refs      *references
	// tr collects spans in a traced run; nil otherwise.
	tr *tracer
	// tiny shrinks every workload to seconds of work; only the self-tests
	// set it.
	tiny bool
	log  io.Writer
}

// workloadFunc runs one workload and fills the result's metrics.
type workloadFunc func(ctx context.Context, cfg *runConfig, t *tally, m metrics) error

var workloads = map[string]workloadFunc{
	"campaign_default": campaignDefault.run,
	"paper_slice":      paperSlice.run,
	"spice_mc":         spiceMC.run,
	"serve_mixed":      runServeMixed,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var code int
	if len(os.Args) > 1 && os.Args[1] == "ab" {
		code = runAB(ctx, os.Args[2:], os.Stdout, os.Stderr)
	} else {
		code = run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	}
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: "+fmt.Sprint(workloadNames()))
		seed    = fs.Uint64("seed", defaultSeed, "workload seed")
		seconds = fs.Float64("seconds", 10, "how long to keep repeating the workload")
		trace   = fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
		record  = fs.Bool("record", false, "rewrite this workload's reference digests from the program as it stands")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok || fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "campaignbench: need --workload %v, --trace 0|1 and positive --seconds\n", workloadNames())
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	cfg := &runConfig{
		workload: *name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, root: root, log: stderr,
	}
	if cfg.refs, err = loadReferences(); err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	cfg.out = scratch

	if *record {
		if err := recordReferences(ctx, cfg, filepath.Join(root, "campaignbench", referencePath)); err != nil {
			fmt.Fprintln(stderr, "campaignbench: record:", err)
			return 1
		}
		return 0
	}

	res, err := runWorkload(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	if err := writeTraceFile(cfg, outDir); err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	printSummary(stderr, cfg, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runWorkload runs the configured workload and assembles its result line.
// Operation failures (errors, bad statuses, digest mismatches) are counted,
// not returned; an error means the benchmark itself could not run.
func runWorkload(ctx context.Context, cfg *runConfig) (*result, error) {
	var t tally
	m := metrics{}
	if cfg.trace {
		cfg.tr = newTracer()
	}
	if err := workloads[cfg.workload](ctx, cfg, &t, m); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if t.attempted == 0 {
		return nil, errors.New(cfg.workload + ": no operation attempted")
	}
	if !cfg.trace {
		m.set("success_rate", 1-float64(t.failed)/float64(t.attempted), "ratio")
	}
	for _, r := range t.reasons {
		fmt.Fprintln(cfg.log, "campaignbench: failed operation:", r)
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// printSummary writes a human-readable table of the result to w.
func printSummary(w io.Writer, cfg *runConfig, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "campaignbench: %s seed %d trace %v: %d operations, %d failed (error_rate %s)\n",
		cfg.workload, cfg.seed, cfg.trace, res.Attempted, res.Failed,
		strconv.FormatFloat(float64(res.Failed)/float64(res.Attempted), 'g', 4, 64))
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}
