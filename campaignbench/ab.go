package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// benchmarkSpec is the part of BENCHMARK.json the A/B mode reads: which
// direction is better for each metric.
type benchmarkSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runAB is the interleaved A/B mode: it runs the benchmark in two checkouts
// n times each, alternating which side runs first in each pair and giving
// pair i the seed seed+i on both sides, then prints each metric's median
// and quartiles per side and the share of pairs each side won.
func runAB(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaignbench ab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dirA     = fs.String("a", "", "checkout root of side A (e.g. the parent commit)")
		dirB     = fs.String("b", "", "checkout root of side B (e.g. the change)")
		workload = fs.String("workload", "", "workload to run")
		seed     = fs.Uint64("seed", defaultSeed, "seed of the first pair; pair i uses seed+i")
		seconds  = fs.Float64("seconds", 10, "--seconds for every run")
		trace    = fs.Int("trace", 0, "--trace for every run")
		n        = fs.Int("n", 10, "number of pairs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dirA == "" || *dirB == "" || *workload == "" || *n < 1 {
		fmt.Fprintln(stderr, "campaignbench ab: need -a, -b, --workload and -n >= 1")
		return 2
	}
	spec, err := readSpec(*dirA)
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench ab:", err)
		return 1
	}
	better := make(map[string]string)
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		better[m.Name] = m.Better
	}

	sides := [2]string{*dirA, *dirB}
	var results [2][]*result
	for i := 0; i < *n; i++ {
		order := [2]int{0, 1}
		if i%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, side := range order {
			res, err := runSide(ctx, sides[side], []string{
				"--workload", *workload, "--seed", strconv.FormatUint(*seed+uint64(i), 10),
				"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", strconv.Itoa(*trace),
			}, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "campaignbench ab: pair %d side %c: %v\n", i, "AB"[side], err)
				return 1
			}
			results[side] = append(results[side], res)
		}
	}
	printAB(stdout, *workload, results, better)
	return 0
}

// readSpec reads BENCHMARK.json from a checkout root.
func readSpec(dir string) (*benchmarkSpec, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// runSide builds and runs the benchmark of one checkout and parses its
// result line.
func runSide(ctx context.Context, dir string, args []string, stderr io.Writer) (*result, error) {
	cmd := exec.CommandContext(ctx, "bash", append([]string{filepath.Join("campaignbench", "run.sh")}, args...)...)
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = io.Discard
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	var last []byte
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", dir, err)
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "campaignbench ab: %s: %d of %d operations failed\n", dir, res.Failed, res.Attempted)
	}
	return &res, nil
}

// printAB prints, per metric, each side's median and quartiles and the
// share of pairs each side won (ties count for neither).
func printAB(w io.Writer, workload string, results [2][]*result, better map[string]string) {
	names := make(map[string]bool)
	for _, r := range results[0] {
		for name := range r.Metrics {
			names[name] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	pairs := len(results[0])
	fmt.Fprintf(w, "A/B on %s, %d pairs (A = first checkout, B = second)\n", workload, pairs)
	fmt.Fprintf(w, "%-36s %-6s %30s %30s %7s %7s\n", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "A wins", "B wins")
	for _, name := range sorted {
		var vals [2][]float64
		winA, winB := 0, 0
		unit := ""
		for i := 0; i < pairs; i++ {
			a, okA := results[0][i].Metrics[name]
			b, okB := results[1][i].Metrics[name]
			if !okA || !okB {
				continue
			}
			unit = a.Unit
			vals[0] = append(vals[0], a.Value)
			vals[1] = append(vals[1], b.Value)
			switch {
			case a.Value == b.Value:
			case (a.Value < b.Value) == (better[name] != "higher"):
				winA++
			default:
				winB++
			}
		}
		if len(vals[0]) == 0 {
			continue
		}
		cell := func(v []float64) string {
			return fmt.Sprintf("%.5g [%.5g, %.5g]", median(v), quantile(v, 0.25), quantile(v, 0.75))
		}
		fmt.Fprintf(w, "%-36s %-6s %30s %30s %6.0f%% %6.0f%%\n", name, unit, cell(vals[0]), cell(vals[1]),
			100*float64(winA)/float64(len(vals[0])), 100*float64(winB)/float64(len(vals[0])))
	}
}
