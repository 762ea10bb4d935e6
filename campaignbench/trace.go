package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dramstudy/rhvpp"
)

// span is one traced interval. Spans are recorded only by the benchmark's
// own code, around its calls into the program's layers.
type span struct {
	Name string `json:"name"`
	// ID names the unit of work: an experiment id, a study/unit key, or a
	// request number.
	ID string `json:"id,omitempty"`
	// Parent is the index of the causing span, or -1 for a root.
	Parent  int   `json:"parent"`
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name, id string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, StartNS: now, EndNS: -1})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].EndNS = now
	t.mu.Unlock()
}

// event records a zero-length span.
func (t *tracer) event(name, id string, parent int) { t.end(t.begin(name, id, parent)) }

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// covered returns the length of the union of the children's intervals,
// clipped to [lo, hi]. Children run in parallel under a study span, so
// their durations can overlap and must not be summed.
func covered(children []span, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c.StartNS, lo), min(c.EndNS, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// children indexes each span's direct children.
func children(spans []span) map[int][]span {
	out := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its children cover.
func selfTimes(spans []span) map[string]float64 {
	kids := children(spans)
	out := make(map[string]float64)
	for i, s := range spans {
		if s.EndNS < 0 {
			continue
		}
		self := s.dur() - covered(kids[i], s.StartNS, s.EndNS)
		out[s.Name] += float64(self) / 1e9
	}
	return out
}

// unaccountedPct is the share of root span i's duration that no child span
// covers: time the trace cannot attribute to a study, unit, render or
// request.
func unaccountedPct(spans []span, i int) float64 {
	root := spans[i]
	if root.dur() <= 0 {
		return 0
	}
	return 100 * float64(root.dur()-covered(children(spans)[i], root.StartNS, root.EndNS)) / float64(root.dur())
}

// traceFile is what a traced run writes out at the end.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	SelfS    map[string]float64 `json:"self_s"`
	Spans    []span             `json:"spans"`
}

// writeTraceFile writes the traced run's spans and per-name self times to
// dir/trace-<workload>-<seed>.json and prints the self times.
func writeTraceFile(cfg *runConfig, dir string) error {
	spans := cfg.tr.snapshot()
	if spans == nil {
		return nil
	}
	tf := traceFile{Workload: cfg.workload, Seed: cfg.seed, SelfS: selfTimes(spans), Spans: spans}
	raw, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	names := make([]string, 0, len(tf.SelfS))
	for n := range tf.SelfS {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(cfg.log, "campaignbench: %d spans written to %s; self time per span name:\n", len(spans), path)
	for _, n := range names {
		fmt.Fprintf(cfg.log, "  %-36s %12.6f s\n", n, tf.SelfS[n])
	}
	return nil
}

// timingRunner is a Runner that wraps LocalRunner to time every work unit.
// Module units (one testbed each) run through a pool of Options.Jobs
// workers, as LocalRunner runs them, one unit per call so each gets its own
// span. The SPICE Monte-Carlo levels share one global run queue inside
// LocalRunner; splitting them would change the schedule, so they run as one
// call and their per-level completions are recorded as events.
type timingRunner struct {
	tr *tracer
	// parent is the span of the study being computed.
	parent atomic.Int64

	mu    sync.Mutex
	units []float64 // module-unit durations, seconds
}

// RunStudy implements rhvpp.Runner.
func (r *timingRunner) RunStudy(ctx context.Context, o rhvpp.Options, study rhvpp.Study, units []rhvpp.WorkUnit) ([]rhvpp.UnitResult, error) {
	return r.RunStudyObserved(ctx, o, study, units, nil)
}

// RunStudyObserved implements rhvpp.ObservedRunner.
func (r *timingRunner) RunStudyObserved(ctx context.Context, o rhvpp.Options, study rhvpp.Study, units []rhvpp.WorkUnit, onUnit func(rhvpp.WorkUnit)) ([]rhvpp.UnitResult, error) {
	parent := int(r.parent.Load())
	if study == rhvpp.StudySpiceMC {
		sp := r.tr.begin("unit", string(study)+"/*", parent)
		defer r.tr.end(sp)
		return rhvpp.LocalRunner{}.RunStudyObserved(ctx, o, study, units, func(u rhvpp.WorkUnit) {
			r.tr.event("unit.done", u.Study+"/"+u.Key, sp)
			if onUnit != nil {
				onUnit(u)
			}
		})
	}
	jobs := o.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	jobs = min(jobs, len(units))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make([]rhvpp.UnitResult, len(units))
	errs := make([]error, len(units))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(units) || ctx.Err() != nil {
					return
				}
				u := units[i]
				start := time.Now()
				sp := r.tr.begin("unit", u.Study+"/"+u.Key, parent)
				res, err := rhvpp.LocalRunner{}.RunStudy(ctx, o, study, []rhvpp.WorkUnit{u})
				r.tr.end(sp)
				if err == nil && len(res) != 1 {
					err = fmt.Errorf("unit %s/%s: runner returned %d results", u.Study, u.Key, len(res))
				}
				if err != nil {
					errs[i] = err
					cancel()
					return
				}
				out[i] = res[0]
				r.mu.Lock()
				r.units = append(r.units, time.Since(start).Seconds())
				r.mu.Unlock()
				if onUnit != nil {
					onUnit(u)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// unitSeconds returns the recorded module-unit durations.
func (r *timingRunner) unitSeconds() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.units...)
}
