package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/dramstudy/rhvpp"
)

// tinyConfig is a run of one workload at the self-tests' size.
func tinyConfig(t *testing.T, workload string, trace bool) *runConfig {
	t.Helper()
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	return &runConfig{
		workload: workload, seed: 11, seconds: time.Millisecond, trace: trace,
		root: "..", out: t.TempDir(), refs: refs, tiny: true, log: io.Discard,
	}
}

// TestEveryMetricEmitted runs each workload at tiny size, untraced and
// traced, and checks that it reports exactly the metrics BENCHMARK.json
// names, each with its unit, with every output correct and every
// end-to-end value non-zero.
func TestEveryMetricEmitted(t *testing.T) {
	spec, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			cfg := tinyConfig(t, name, trace)
			res, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d failed", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, trace, len(res.Metrics), len(want))
			}
			for _, w := range want {
				got, ok := res.Metrics[w.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, w.Name)
				case got.Unit != w.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", name, trace, w.Name, got.Unit, w.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, w.Name, got.Value)
				}
			}
		}
	}
}

// TestFaultsCounted injects a flipped response byte and a 5xx into a served
// pass and a flipped byte into a rendered batch pass: each must count as a
// failed operation.
func TestFaultsCounted(t *testing.T) {
	cfg := tinyConfig(t, "serve_mixed", false)
	check, err := newServeChecker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	script := []request{
		{0, "table3", rhvpp.FormatText}, {0, "fig5", rhvpp.FormatJSON}, {0, "fig7", rhvpp.FormatCSV},
		{0, "summary", rhvpp.FormatText}, {0, "table1", rhvpp.FormatCSV},
	}
	fault := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/v1/experiments/fig5":
				http.Error(w, "injected", http.StatusInternalServerError)
			case "/v1/experiments/fig7":
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, r)
				body := rec.Body.Bytes()
				body[len(body)/2] ^= 1
				w.WriteHeader(rec.Code)
				_, _ = w.Write(body) // a failed write reaches the client as an error, which also counts
			default:
				h.ServeHTTP(w, r)
			}
		})
	}
	var tl tally
	sess := serveSession{
		dir: filepath.Join(cfg.out, "store"), script: script, clients: 1, sessionCap: 1,
		check: check, t: &tl, wrap: fault,
	}
	if _, err := sess.run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tl.attempted != len(script) || tl.failed != 2 {
		t.Errorf("served: %d attempted, %d failed; want %d and 2 (%v)", tl.attempted, tl.failed, len(script), tl.reasons)
	}

	w := batchWorkload{name: "tiny", ids: []string{"table1", "table2"}}
	out, err := w.rep(context.Background(), tinyOptions(rhvpp.GoldenOptions()), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string]string{"table1": digest(out.sections[0]), "table2": digest(out.sections[1])}
	out.sections[1][len(out.sections[1])/2] ^= 1
	var bt tally
	w.tally(out, newDigestChecker(ref), &bt)
	if bt.attempted != 2 || bt.failed != 1 {
		t.Errorf("batch: %d attempted, %d failed; want 2 and 1", bt.attempted, bt.failed)
	}
}

// TestRequestScriptDeterministic checks that the seed alone fixes the
// request stream and that the stream covers every campaign and class.
func TestRequestScriptDeterministic(t *testing.T) {
	a, b := requestScript(7, 400), requestScript(7, 400)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different request streams")
	}
	if reflect.DeepEqual(a, requestScript(8, 400)) {
		t.Fatal("different seeds gave the same request stream")
	}
	campaigns := make(map[int]bool)
	var all, selfComputing int
	for _, r := range a {
		campaigns[r.Campaign] = true
		if r.ID == "all" {
			all++
		}
		if strings.HasPrefix(r.ID, "abl-") || strings.HasPrefix(r.ID, "ext-") {
			selfComputing++
		}
	}
	if len(campaigns) != len(serveCampaignSeeds) || all == 0 || selfComputing == 0 {
		t.Errorf("stream covers %d campaigns, %d `all`, %d self-computing requests", len(campaigns), all, selfComputing)
	}
}

// TestSelfTime checks the self-time arithmetic on overlapping children:
// parallel unit spans must be counted once.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "study", Parent: -1, StartNS: 0, EndNS: 100},
		{Name: "unit", Parent: 0, StartNS: 10, EndNS: 60},
		{Name: "unit", Parent: 0, StartNS: 20, EndNS: 70},
		{Name: "unit", Parent: 0, StartNS: 80, EndNS: 90},
	}
	self := selfTimes(spans)
	if got, want := self["study"], 30e-9; got < want*0.999 || got > want*1.001 {
		t.Errorf("study self time %g s, want %g", got, want)
	}
	if got := unaccountedPct(spans, 0); got < 29.99 || got > 30.01 {
		t.Errorf("unaccounted %g%%, want 30%%", got)
	}
}
