package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/dramstudy/rhvpp"
)

// referencePath is the committed reference file, relative to the
// benchmark's directory.
const referencePath = "testdata/reference.json"

//go:embed testdata/reference.json
var referenceJSON []byte

// references holds the SHA-256 of every output the benchmark checks, as the
// program rendered it when the references were recorded. Outputs is keyed
// by "<workload>/<Options.Seed>"; each entry maps an output name (an
// experiment id, or "<id>.<format>" for served responses) to its digest.
type references struct {
	Outputs map[string]map[string]string `json:"outputs"`
}

func loadReferences() (*references, error) {
	var r references
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", referencePath, err)
	}
	return &r, nil
}

func refKey(workload string, optionsSeed uint64) string {
	return fmt.Sprintf("%s/%d", workload, optionsSeed)
}

// lookup returns the recorded digests for a workload's outputs at the given
// options seed, or nil when none were recorded.
func (r *references) lookup(workload string, optionsSeed uint64) map[string]string {
	return r.Outputs[refKey(workload, optionsSeed)]
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestChecker compares outputs against recorded digests. Without a
// recording for an output it falls back to self-consistency: every later
// rendering must equal the first, and the digest is printed so two commits
// can be compared by hand.
type digestChecker struct {
	want map[string]string

	mu   sync.Mutex
	seen map[string]string
}

func newDigestChecker(want map[string]string) *digestChecker {
	return &digestChecker{want: want, seen: make(map[string]string)}
}

// check returns an error when out's digest disagrees with the recorded one,
// or, when none is recorded, with the first digest seen under that name.
func (c *digestChecker) check(name string, out []byte) error {
	got := digest(out)
	if want, ok := c.want[name]; ok {
		if got != want {
			return fmt.Errorf("%s: output digest %.12s, reference %.12s", name, got, want)
		}
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if first, ok := c.seen[name]; ok && first != got {
		return fmt.Errorf("%s: output digest %.12s differs from this run's first rendering %.12s", name, got, first)
	}
	c.seen[name] = got
	return nil
}

// unreferenced lists the outputs that had no recorded digest, with the
// digest this run produced.
func (c *digestChecker) unreferenced() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for name, d := range c.seen { // sorted below
		out = append(out, name+" "+d)
	}
	sort.Strings(out)
	return out
}

// splitSections splits an `-exp all` rendering into its per-experiment
// sections ("== id ==\n" banner plus body), in catalog order.
func splitSections(all []byte) (map[string][]byte, error) {
	exps := rhvpp.Experiments()
	out := make(map[string][]byte, len(exps))
	rest := all
	for i, e := range exps {
		banner := []byte("== " + e.ID + " ==\n")
		if !bytes.HasPrefix(rest, banner) {
			return nil, fmt.Errorf("section %s not found where expected", e.ID)
		}
		end := len(rest)
		if i+1 < len(exps) {
			next := []byte("== " + exps[i+1].ID + " ==\n")
			end = bytes.Index(rest, next)
			if end < 0 {
				return nil, fmt.Errorf("section %s not found", exps[i+1].ID)
			}
		}
		out[e.ID] = rest[:end]
		rest = rest[end:]
	}
	return out, nil
}

// recordReferences renders the workload's outputs once at cfg.seed and
// writes their digests into the reference file at path.
func recordReferences(ctx context.Context, cfg *runConfig, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var refs references
	if err := json.Unmarshal(raw, &refs); err != nil {
		return err
	}
	if refs.Outputs == nil {
		refs.Outputs = make(map[string]map[string]string)
	}
	recorded := make(map[string]map[string]string)
	if cfg.workload == "serve_mixed" {
		for _, s := range serveCampaignSeeds {
			d, err := servedDigests(ctx, s)
			if err != nil {
				return err
			}
			recorded[refKey(cfg.workload, s)] = d
		}
	} else {
		w := batchByName[cfg.workload]
		o := w.options(cfg.seed)
		out, err := w.rep(ctx, o, nil, nil)
		if err != nil {
			return err
		}
		d := make(map[string]string, len(out.sections))
		for i, id := range w.ids {
			if out.errs[i] != nil {
				return out.errs[i]
			}
			d[id] = digest(out.sections[i])
		}
		recorded[refKey(cfg.workload, o.Seed)] = d
	}
	for k, v := range recorded {
		refs.Outputs[k] = v
		fmt.Fprintf(cfg.log, "campaignbench: recorded %d digests under %s\n", len(v), k)
	}
	enc, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

// servedDigests renders every experiment and `all`, in every format, for
// the golden-scope campaign at the given seed, exactly as the server
// renders response bodies.
func servedDigests(ctx context.Context, seed uint64) (map[string]string, error) {
	o := rhvpp.GoldenOptions()
	o.Seed = seed
	c, err := rhvpp.NewCampaign(o)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string)
	for _, f := range rhvpp.Formats() {
		var all bytes.Buffer
		for _, e := range rhvpp.Experiments() {
			var one bytes.Buffer
			enc, err := rhvpp.NewEncoder(f, &one)
			if err == nil {
				err = c.Run(ctx, e.ID, enc)
			}
			if err != nil {
				return nil, fmt.Errorf("seed %d %s.%s: %w", seed, e.ID, f, err)
			}
			out[e.ID+"."+string(f)] = digest(one.Bytes())
			all.WriteString("== " + e.ID + " ==\n")
			all.Write(one.Bytes())
		}
		out["all."+string(f)] = digest(all.Bytes())
	}
	return out, nil
}

// formatExt maps formats to the golden files' extensions.
var formatExt = map[rhvpp.Format]string{rhvpp.FormatText: "txt", rhvpp.FormatJSON: "json", rhvpp.FormatCSV: "csv"}

// goldenOutputs reads testdata/golden/all.{txt,json,csv} and returns the
// expected response body of every experiment and of `all` for the golden
// campaign, keyed "<id>.<format>".
func goldenOutputs(root string) (map[string][]byte, error) {
	out := make(map[string][]byte)
	for f, ext := range formatExt {
		raw, err := os.ReadFile(filepath.Join(root, "testdata", "golden", "all."+ext))
		if err != nil {
			return nil, err
		}
		secs, err := splitSections(raw)
		if err != nil {
			return nil, fmt.Errorf("golden all.%s: %w", ext, err)
		}
		for id, sec := range secs {
			_, body, _ := strings.Cut(string(sec), "\n")
			out[id+"."+string(f)] = []byte(body)
		}
		out["all."+string(f)] = raw
	}
	return out, nil
}
