// Command benchreport renders the repository's performance trajectory — the
// committed spicebench snapshots of past PRs (bench/history.json) plus the
// current BENCH_spice.json — as the markdown table embedded in docs/PERF.md,
// and verifies in CI that the committed table has not drifted from the
// committed numbers.
//
//	benchreport            # print the table to stdout
//	benchreport -write     # rewrite the table block inside docs/PERF.md
//	benchreport -check     # exit non-zero if docs/PERF.md is stale
//
// The table lives between the markers
//
//	<!-- benchreport:begin -->
//	<!-- benchreport:end -->
//
// and everything outside them is hand-written prose, untouched by -write.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// metric describes one table column: its JSON key in a spicebench snapshot
// and how to format it. Snapshots are decoded as generic maps so rows from
// before a metric existed simply render as "—" instead of breaking decode.
type metric struct {
	key, header, unit string
	digits            int
}

// metrics are the trajectory columns, in presentation order.
var metrics = []metric{
	{"transient_step_ns_incremental", "ns/step (fixed)", "", 0},
	{"transient_step_ns_adaptive", "ns/step (adaptive)", "", 0},
	{"adaptive_quiescent_step_reduction", "quiescent step cut", "x", 2},
	{"mc_runs_per_sec_jobs1", "MC runs/s", "", 0},
	{"mc_agg_runs_per_sec", "MC agg runs/s", "", 0},
	{"mc_agg_bytes_per_run", "bytes/run", "", 0},
	{"shard_merge_runs_per_sec", "shard-merge runs/s", "", 0},
	{"detlint_ns_per_pkg", "detlint ns/pkg", "", 0},
}

const (
	beginMarker = "<!-- benchreport:begin -->"
	endMarker   = "<!-- benchreport:end -->"
	headLabel   = "HEAD (BENCH_spice.json)"
)

type historyEntry struct {
	Label    string                 `json:"label"`
	Snapshot map[string]interface{} `json:"snapshot"`
}

func main() {
	var (
		benchPath   = flag.String("bench", "BENCH_spice.json", "current spicebench snapshot")
		historyPath = flag.String("history", "bench/history.json", "labeled snapshots of past PRs")
		perfPath    = flag.String("perf", "docs/PERF.md", "performance document holding the generated table")
		write       = flag.Bool("write", false, "rewrite the table block inside -perf")
		check       = flag.Bool("check", false, "verify the -perf table matches the committed snapshots")
	)
	flag.Parse()
	if err := run(*benchPath, *historyPath, *perfPath, *write, *check); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

func run(benchPath, historyPath, perfPath string, write, check bool) error {
	table, err := render(benchPath, historyPath)
	if err != nil {
		return err
	}
	switch {
	case write:
		return rewrite(perfPath, table)
	case check:
		return verify(perfPath, table)
	default:
		fmt.Print(table)
		return nil
	}
}

// render produces the markdown table from the history entries plus the
// current snapshot.
func render(benchPath, historyPath string) (string, error) {
	var entries []historyEntry
	if err := decodeFile(historyPath, &entries); err != nil {
		return "", err
	}
	var head map[string]interface{}
	if err := decodeFile(benchPath, &head); err != nil {
		return "", err
	}
	entries = append(entries, historyEntry{Label: headLabel, Snapshot: head})

	var b strings.Builder
	b.WriteString("| change |")
	for _, m := range metrics {
		fmt.Fprintf(&b, " %s |", m.header)
	}
	b.WriteString("\n|---|")
	for range metrics {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, e := range entries {
		fmt.Fprintf(&b, "| %s |", e.Label)
		for _, m := range metrics {
			b.WriteString(" " + formatCell(e.Snapshot, m) + " |")
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

func formatCell(snap map[string]interface{}, m metric) string {
	v, ok := snap[m.key].(float64)
	if !ok {
		return "—"
	}
	return fmt.Sprintf("%.*f%s", m.digits, v, m.unit)
}

func decodeFile(path string, into interface{}) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// splitDoc separates the document into prose-before, generated block, and
// prose-after.
func splitDoc(doc string) (before, block, after string, err error) {
	i := strings.Index(doc, beginMarker)
	j := strings.Index(doc, endMarker)
	if i < 0 || j < 0 || j < i {
		return "", "", "", fmt.Errorf("markers %q / %q not found in order", beginMarker, endMarker)
	}
	i += len(beginMarker)
	return doc[:i], doc[i:j], doc[j:], nil
}

func rewrite(perfPath, table string) error {
	raw, err := os.ReadFile(perfPath)
	if err != nil {
		return err
	}
	before, _, after, err := splitDoc(string(raw))
	if err != nil {
		return fmt.Errorf("%s: %w", perfPath, err)
	}
	return os.WriteFile(perfPath, []byte(before+"\n"+table+after), 0o644)
}

func verify(perfPath, table string) error {
	raw, err := os.ReadFile(perfPath)
	if err != nil {
		return err
	}
	_, block, _, err := splitDoc(string(raw))
	if err != nil {
		return fmt.Errorf("%s: %w", perfPath, err)
	}
	if strings.TrimSpace(block) != strings.TrimSpace(table) {
		return fmt.Errorf("%s is stale relative to BENCH_spice.json/bench history — run `go run ./cmd/benchreport -write` and commit the result", perfPath)
	}
	return nil
}
