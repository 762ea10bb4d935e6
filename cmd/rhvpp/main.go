// Command rhvpp regenerates the paper's tables and figures from the
// simulated study. Each experiment id corresponds to one table/figure of the
// evaluation (see DESIGN.md for the full index). All ids run within one
// Campaign session, so experiments sharing a study (e.g. table3 and fig3-6)
// measure the hardware once; module sweeps run -jobs modules at a time with
// byte-identical output at any worker count, and ctrl-C (or SIGTERM) cancels
// the sweep cleanly — the process exits non-zero and never leaves a
// partially-written artifact behind.
//
//	rhvpp -list
//	rhvpp -exp table3
//	rhvpp -exp fig5 -modules B3,C0 -rows 8
//	rhvpp -exp fig8b -mc 1000 -format json
//	rhvpp -exp all -jobs 8 -out results/ -format csv
//
// Sharded campaigns split the study work units across processes or hosts and
// merge the artifacts back, byte-identical to a single-process run:
//
//	rhvpp -shard 0/2 -artifact s0.json     # on tester A
//	rhvpp -shard 1/2 -artifact s1.json     # on tester B
//	rhvpp merge -exp all s0.json s1.json   # anywhere
//
// `rhvpp -procs N ...` runs the same split on one machine by fanning units
// out to N subprocesses of this binary (the ProcRunner backend).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"text/tabwriter"

	"github.com/dramstudy/rhvpp"
	"github.com/dramstudy/rhvpp/internal/optparse"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rhvpp:", err)
		os.Exit(1)
	}
}

// outExt maps formats to output-file extensions for -out. Validation is the
// encoder's job (rhvpp.NewEncoder); this map only picks file names, so a
// format it doesn't know falls back to ".out".
var outExt = map[rhvpp.Format]string{
	rhvpp.FormatText: ".txt",
	rhvpp.FormatJSON: ".json",
	rhvpp.FormatCSV:  ".csv",
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	if len(args) > 0 && args[0] == "merge" {
		return runMerge(ctx, args[1:], stdout)
	}
	if len(args) > 0 && args[0] == "serve" {
		return runServe(ctx, args[1:], stdout)
	}

	fs := flag.NewFlagSet("rhvpp", flag.ContinueOnError)
	var ov optparse.Overrides
	ov.Flags(fs) // the campaign knobs shared with `rhvpp serve` query params
	var (
		exp      = fs.String("exp", "", "experiment id to run (or 'all'); see -list")
		list     = fs.Bool("list", false, "list experiment ids with titles and paper sections, then exit")
		format   = fs.String("format", "text", "output format: text, json, or csv")
		full     = fs.Bool("full", false, "use the paper's full-scale parameters (same as -preset paper)")
		preset   = fs.String("preset", "", "campaign preset: default, paper, or golden (the pinned regression scope)")
		outDir   = fs.String("out", "", "write each experiment's output to <out>/<id>.<ext> instead of stdout")
		progress = fs.Bool("progress", false, "print per-unit completion lines to stderr while studies run")
		shard    = fs.String("shard", "", "run shard i/n of the campaign work units and write a shard artifact (e.g. -shard 0/2)")
		artPath  = fs.String("artifact", "", "shard artifact output path (with -shard; default shard-<i>-of-<n>.json)")
		procs    = fs.Int("procs", 0, "fan study units out to N shard subprocesses of this binary")
		shardRun = fs.String("shard-exec", "", "internal: execute the ShardRequest JSON file at this path, write the artifact to stdout")
	)
	if err := optparse.ParseFlags(fs, args); err != nil {
		return err
	}

	// Subprocess protocol mode (spawned by ProcRunner): no banners, the
	// artifact is the only stdout output.
	if *shardRun != "" {
		return runShardExec(ctx, *shardRun, stdout)
	}

	if *list {
		tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		for _, e := range rhvpp.Experiments() {
			studies := make([]string, 0, len(e.Studies))
			for _, s := range e.Studies {
				studies = append(studies, string(s))
			}
			dep := "-"
			if len(studies) > 0 {
				dep = strings.Join(studies, ",")
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", e.ID, e.Title, e.Section, dep)
		}
		return tw.Flush()
	}

	o, err := baseOptions(*preset, *full)
	if err != nil {
		return err
	}
	ov.Apply(&o)

	if *procs < 0 {
		return fmt.Errorf("-procs %d is negative (use a positive subprocess count, or omit for in-process execution)", *procs)
	}
	if *artPath != "" && *shard == "" {
		return fmt.Errorf("-artifact is only written by -shard runs (add -shard i/n, or drop -artifact)")
	}
	if *shard != "" {
		// A shard run emits an artifact, not rendered output, and always
		// executes in-process: flags that only shape rendering or the
		// subprocess backend would be silently dead here, so reject the
		// contradiction instead (the -full/-preset stance).
		var conflicts []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "format", "out", "procs":
				conflicts = append(conflicts, "-"+f.Name)
			}
		})
		if len(conflicts) > 0 {
			return fmt.Errorf("-shard contradicts %s (a shard writes an artifact in-process; render via `rhvpp merge`)",
				strings.Join(conflicts, ", "))
		}
		return runShard(ctx, o, *shard, *artPath, *exp, stdout)
	}

	if *exp == "" {
		fs.Usage()
		return fmt.Errorf("missing -exp (use -list to see experiment ids)")
	}
	f := rhvpp.Format(*format)
	if _, err := rhvpp.NewEncoder(f, io.Discard); err != nil {
		return err
	}

	c, err := rhvpp.NewCampaign(o)
	if err != nil {
		return err
	}
	if *progress {
		c.WithProgress(stderrProgress())
	}
	if *procs > 0 {
		exe, err := os.Executable()
		if err != nil {
			return fmt.Errorf("-procs: resolving own binary: %w", err)
		}
		c.WithRunner(rhvpp.ProcRunner{Command: []string{exe, "-shard-exec"}, Shards: *procs})
	}
	return renderExperiments(ctx, c, expandIDs(*exp), f, *outDir, stdout)
}

// baseOptions resolves the campaign preset through the shared resolver (the
// serve API's `preset` query parameter goes through the same one). -full is
// an alias for -preset paper; combining it with a different preset is
// contradictory and rejected rather than silently resolved.
func baseOptions(preset string, full bool) (rhvpp.Options, error) {
	if full {
		if preset != "" && preset != "paper" {
			return rhvpp.Options{}, fmt.Errorf("-full contradicts -preset %s (drop one)", preset)
		}
		preset = "paper"
	}
	return rhvpp.PresetOptions(preset)
}

// stderrProgress returns a progress hook printing one line per completed
// work unit. Module-sweep events arrive concurrently from the worker pool,
// so the hook serializes writes to keep lines whole.
func stderrProgress() rhvpp.ProgressFunc {
	var mu sync.Mutex
	return func(ev rhvpp.ProgressEvent) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Key == "" {
			fmt.Fprintf(os.Stderr, "rhvpp: %s: %d units\n", ev.Study, ev.Total)
			return
		}
		fmt.Fprintf(os.Stderr, "rhvpp: %s %s %d/%d\n", ev.Study, ev.Key, ev.Done, ev.Total)
	}
}

// expandIDs resolves "all" to every experiment id in presentation order.
func expandIDs(exp string) []string {
	if exp != "all" {
		return []string{exp}
	}
	var ids []string
	for _, e := range rhvpp.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// renderExperiments renders each id through the campaign, with the same
// banner/stream layout for the local, subprocess-backed, and merged paths.
func renderExperiments(ctx context.Context, c *rhvpp.Campaign, ids []string,
	f rhvpp.Format, outDir string, stdout io.Writer) error {
	ext, ok := outExt[f]
	if !ok {
		ext = ".out"
	}
	for _, id := range ids {
		w := stdout
		var fh *os.File
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}
			var err error
			fh, err = os.Create(filepath.Join(outDir, id+ext))
			if err != nil {
				return err
			}
			w = fh
		}
		fmt.Fprintf(stdout, "== %s ==\n", id)
		enc, err := rhvpp.NewEncoder(f, w)
		if err == nil {
			err = c.Run(ctx, id, enc)
		}
		if fh != nil {
			// A close failure on the output file is a lost short write;
			// surface it unless the experiment already failed.
			if cerr := fh.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
	}
	return nil
}

// shardStudies resolves which studies a shard covers: every shardable study
// for "" or "all", otherwise the selected experiment's shardable studies.
func shardStudies(exp string) ([]rhvpp.Study, error) {
	if exp == "" || exp == "all" {
		return nil, nil // PlanUnits default: every shardable study
	}
	e, ok := rhvpp.ExperimentByID(exp)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q (known: %v)", exp, rhvpp.ExperimentNames())
	}
	shardable := make(map[rhvpp.Study]bool)
	for _, s := range rhvpp.ShardableStudies() {
		shardable[s] = true
	}
	var studies []rhvpp.Study
	for _, s := range e.Studies {
		if shardable[s] {
			studies = append(studies, s)
		}
	}
	if len(studies) == 0 {
		return nil, fmt.Errorf("experiment %s has no shardable studies; run it directly with -exp", exp)
	}
	return studies, nil
}

// parseShardSpec parses "i/n" strictly: both halves must be whole decimal
// numbers with nothing trailing, so a typo like "1/2/3" is rejected instead
// of silently running as shard 1 of 2.
func parseShardSpec(spec string) (shard, of int, err error) {
	i, n, ok := strings.Cut(spec, "/")
	if ok {
		shard, err = strconv.Atoi(i)
		if err == nil {
			of, err = strconv.Atoi(n)
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("-shard %q: want i/n, e.g. 0/2", spec)
	}
	return shard, of, nil
}

// runShard executes this process's slice of the campaign plan and writes the
// artifact atomically: the JSON lands in a temp file in the target directory
// and is renamed into place only after a complete, successful run, so an
// interrupted or failed shard leaves no partial artifact behind.
func runShard(ctx context.Context, o rhvpp.Options, spec, path, exp string, stdout io.Writer) error {
	shard, of, err := parseShardSpec(spec)
	if err != nil {
		return err
	}
	studies, err := shardStudies(exp)
	if err != nil {
		return err
	}
	units, err := rhvpp.PlanUnits(o, studies...)
	if err != nil {
		return err
	}
	mine, err := rhvpp.ShardUnits(units, shard, of)
	if err != nil {
		return err
	}
	art, err := rhvpp.RunShard(ctx, o, shard, of, mine)
	if err != nil {
		return err
	}
	if path == "" {
		path = fmt.Sprintf("shard-%d-of-%d.json", shard, of)
	}
	if err := writeArtifactAtomic(path, art); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d of %d plan units)\n", path, len(mine), len(units))
	return nil
}

// writeArtifactAtomic encodes into a same-directory temp file and renames.
func writeArtifactAtomic(path string, art *rhvpp.ShardArtifact) error {
	dir := filepath.Dir(path)
	if dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) //detlint:ignore sinkerr best-effort temp cleanup, a no-op after a successful rename
	if err := rhvpp.EncodeArtifact(tmp, art); err != nil {
		tmp.Close() //detlint:ignore sinkerr already failing, the encode error is the one to surface
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// runShardExec is the ProcRunner subprocess protocol: read one ShardRequest,
// execute it, write the artifact JSON to stdout.
func runShardExec(ctx context.Context, reqPath string, stdout io.Writer) error {
	fh, err := os.Open(reqPath)
	if err != nil {
		return err
	}
	defer fh.Close() //detlint:ignore sinkerr read-only descriptor, close cannot lose written data
	req, err := rhvpp.DecodeShardRequest(fh)
	if err != nil {
		return err
	}
	art, err := rhvpp.RunShard(ctx, req.Options, req.Shard, req.Of, req.Units)
	if err != nil {
		return err
	}
	return rhvpp.EncodeArtifact(stdout, art)
}

// runMerge combines shard artifacts and renders experiments from the merged
// campaign. The campaign options come from the artifacts (all shards must
// match); only presentation flags apply here.
func runMerge(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rhvpp merge", flag.ContinueOnError)
	var (
		exp    = fs.String("exp", "all", "experiment id to render from the merged campaign (or 'all')")
		format = fs.String("format", "text", "output format: text, json, or csv")
		outDir = fs.String("out", "", "write each experiment's output to <out>/<id>.<ext> instead of stdout")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: rhvpp merge [-exp id] [-format f] [-out dir] shard0.json shard1.json ...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if len(paths) == 0 {
		fs.Usage()
		return fmt.Errorf("merge: no shard artifacts given")
	}
	f := rhvpp.Format(*format)
	if _, err := rhvpp.NewEncoder(f, io.Discard); err != nil {
		return err
	}
	arts := make([]*rhvpp.ShardArtifact, len(paths))
	for i, path := range paths {
		fh, err := os.Open(path)
		if err != nil {
			return err
		}
		arts[i], err = rhvpp.DecodeArtifact(fh)
		fh.Close() //detlint:ignore sinkerr read-only descriptor, the decode error is the one to surface
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	c, err := rhvpp.MergeArtifacts(arts...)
	if err != nil {
		return err
	}
	return renderExperiments(ctx, c, expandIDs(*exp), f, *outDir, stdout)
}
