package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dramstudy/rhvpp"
	"github.com/dramstudy/rhvpp/internal/server"
)

// serve_mixed: a closed loop of serveClients clients against an in-process
// `rhvpp serve` handler on loopback, whose artifact store starts empty.
// Requests spread over len(serveCampaignSeeds) golden-scope campaigns with
// a session cache of serveSessionCap < that many, so the mix holds the
// campaign computations that fill the store, disk hits that read it back
// after eviction, and memory hits. Disk hits are the majority and hold the
// median: a request's median latency then measures the store, merge and
// render path rather than loopback wake-up jitter.
const (
	serveClients    = 2
	serveSessionCap = 1
	// serveScriptLen is the number of requests in one pass.
	serveScriptLen = 240
	// Shares of a pass, in percent: `all` renders every experiment; the
	// self-computing ablations and extensions compute on every request.
	servePctAll           = 2
	servePctSelfComputing = 15
)

// serveCampaignSeeds are the campaigns' seeds. They are fixed, not drawn
// from the workload seed, so every response has a committed reference; the
// first is the golden campaign itself, checked against testdata/golden.
var serveCampaignSeeds = []uint64{rhvpp.GoldenOptions().Seed, 1, 2, 3}

// request is one scripted GET /v1/experiments/{id}.
type request struct {
	Campaign int // index into serveCampaignSeeds
	ID       string
	Format   rhvpp.Format
}

func (r request) path() string {
	return fmt.Sprintf("/v1/experiments/%s?preset=golden&seed=%d&format=%s", r.ID, serveCampaignSeeds[r.Campaign], r.Format)
}

// output names the response body in the reference digests.
func (r request) output() string { return r.ID + "." + string(r.Format) }

// requestScript draws n requests from the workload seed: the same seed
// always gives the same stream. Every stream has the same composition —
// exact shares of `all`, self-computing and study-backed requests, the ids
// of each class in turn, formats in equal numbers — and the same arrival
// shape: campaign k first appears at request k*n/(4K), so the campaigns
// open over the first quarter of the pass, and every other request picks
// uniformly among the campaigns opened so far. Each computation thus starts
// at the same point of the pass and runs beside hits for the campaigns
// before it. The seed shuffles the pairings and the order, so the work per
// pass does not depend on it.
func requestScript(seed uint64, n int) []request {
	var backed, selfComputing []string
	for _, e := range rhvpp.Experiments() {
		if len(e.Studies) == 0 && (strings.HasPrefix(e.ID, "abl-") || strings.HasPrefix(e.ID, "ext-")) {
			selfComputing = append(selfComputing, e.ID)
		} else {
			backed = append(backed, e.ID)
		}
	}
	nAll, nSelf := n*servePctAll/100, n*servePctSelfComputing/100
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i < nAll:
			ids = append(ids, "all")
		case i < nAll+nSelf:
			ids = append(ids, selfComputing[(i-nAll)%len(selfComputing)])
		default:
			ids = append(ids, backed[(i-nAll-nSelf)%len(backed)])
		}
	}
	formats := rhvpp.Formats()
	k := len(serveCampaignSeeds)
	rnd := rand.New(rand.NewPCG(seed, 0x73657276655f6d78))
	format, order := rnd.Perm(n), rnd.Perm(n)
	script := make([]request, n)
	for i, j := range order {
		opened := min(4*i*k/n+1, k)
		campaign := rnd.IntN(opened)
		if i == (opened-1)*n/(4*k) {
			campaign = opened - 1
		}
		script[i] = request{Campaign: campaign, ID: ids[j], Format: formats[format[j]%len(formats)]}
	}
	return script
}

// serveChecker verifies response bodies: the golden campaign's against
// testdata/golden byte for byte, the others against recorded digests.
type serveChecker struct {
	golden map[string][]byte
	others []*digestChecker
}

func newServeChecker(cfg *runConfig) (*serveChecker, error) {
	golden, err := goldenOutputs(cfg.root)
	if err != nil {
		return nil, err
	}
	c := &serveChecker{golden: golden, others: make([]*digestChecker, len(serveCampaignSeeds))}
	for i, s := range serveCampaignSeeds {
		c.others[i] = newDigestChecker(cfg.refs.lookup("serve_mixed", s))
	}
	return c, nil
}

func (c *serveChecker) check(r request, body []byte) error {
	if r.Campaign == 0 {
		want, ok := c.golden[r.output()]
		if !ok {
			return fmt.Errorf("%s: no golden output", r.output())
		}
		if !bytes.Equal(body, want) {
			return fmt.Errorf("golden campaign %s: response differs from testdata/golden", r.output())
		}
		return nil
	}
	if err := c.others[r.Campaign].check(r.output(), body); err != nil {
		return fmt.Errorf("campaign seed %d: %w", serveCampaignSeeds[r.Campaign], err)
	}
	return nil
}

// serveSession parameterizes one server lifetime.
type serveSession struct {
	dir        string // artifact store directory, empty at start
	script     []request
	clients    int
	sessionCap int
	check      *serveChecker
	t          *tally
	tr         *tracer
	// wrap, when set, wraps the server's handler (the self-tests inject
	// faults through it).
	wrap func(http.Handler) http.Handler
}

// serveOut is what one server lifetime measured.
type serveOut struct {
	setup, wall time.Duration
	lat         []float64            // every request, ms
	byCache     map[string][]float64 // by X-Rhvpp-Cache, ms
	stats       server.Stats
	root        int
	mcRuns      int
	noConverge  int
}

// run opens the store, starts the server, runs the script through the
// clients, reads /v1/statusz, and shuts everything down.
func (s serveSession) run(ctx context.Context) (out serveOut, err error) {
	out.byCache = make(map[string][]float64)
	out.root = -1
	start := time.Now()
	st, err := rhvpp.OpenArtifactStore(s.dir)
	if err != nil {
		return out, err
	}
	var mu sync.Mutex
	compute := func(ctx context.Context, o rhvpp.Options, st *rhvpp.ArtifactStore, onUnit func(rhvpp.WorkUnit)) (*rhvpp.Campaign, bool, error) {
		sp := s.tr.begin("serve.compute", strconv.FormatUint(o.Seed, 10), -1)
		c, fromStore, err := rhvpp.CachedCampaign(ctx, o, st, onUnit)
		s.tr.end(sp)
		if err == nil && !fromStore {
			mc, mcErr := c.SpiceMC(ctx) // preloaded from the artifact: no work
			if mcErr != nil {
				return nil, false, mcErr
			}
			mu.Lock()
			for _, r := range mc.Results {
				out.mcRuns += r.Runs
				out.noConverge += r.NoConverge
			}
			mu.Unlock()
		}
		return c, fromStore, err
	}
	srv := server.New(server.Config{Base: rhvpp.GoldenOptions(), Store: st, Compute: compute, SessionCap: s.sessionCap})
	h := srv.Handler()
	if s.tr != nil {
		h = traceHandler(s.tr, h)
	}
	if s.wrap != nil {
		h = s.wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return out, err
	}
	hs := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		drainErr := srv.Shutdown(ctx)
		if cerr := hs.Shutdown(ctx); drainErr == nil {
			drainErr = cerr
		}
		if serr := <-served; serr != http.ErrServerClosed && drainErr == nil {
			drainErr = serr
		}
		if err == nil && drainErr != nil {
			err = fmt.Errorf("server shutdown: %w", drainErr)
		}
	}()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: max(s.clients, 1)}}
	defer client.CloseIdleConnections()
	base := "http://" + ln.Addr().String()
	if status, _, _, err := get(ctx, client, base+"/v1/healthz", -1); err != nil || status != http.StatusOK {
		return out, fmt.Errorf("healthz: status %d, %v", status, err)
	}
	out.setup = time.Since(start)

	out.root = s.tr.begin("serve", "", -1)
	loopStart := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(s.script) || ctx.Err() != nil {
					return
				}
				r := s.script[i]
				sp := s.tr.begin("request", strconv.Itoa(i), out.root)
				reqStart := time.Now()
				status, cache, body, err := get(ctx, client, base+r.path(), sp)
				ms := time.Since(reqStart).Seconds() * 1e3
				s.tr.end(sp)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %.200s", status, body)
				}
				if err == nil {
					err = s.check.check(r, body)
				}
				if err != nil {
					err = fmt.Errorf("request %d %s: %w", i, r.path(), err)
				}
				s.t.record(err)
				mu.Lock()
				out.lat = append(out.lat, ms)
				out.byCache[cache] = append(out.byCache[cache], ms)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(loopStart)
	s.tr.end(out.root)
	if err := ctx.Err(); err != nil {
		return out, err
	}
	status, _, body, err := get(ctx, client, base+"/v1/statusz", -1)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("statusz: status %d", status)
	}
	if err == nil {
		err = json.Unmarshal(body, &out.stats)
	}
	return out, err
}

// get issues one GET and reads the whole body. span, when not -1, is sent
// so the traced handler can link its span to the client's.
func get(ctx context.Context, client *http.Client, url string, span int) (status int, cache string, body []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, "", nil, err
	}
	if span >= 0 {
		req.Header.Set("X-Bench-Span", strconv.Itoa(span))
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Rhvpp-Cache"), body, err
}

// traceHandler records a span per handled request, parented to the
// client's request span.
func traceHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get("X-Bench-Span"))
		if err != nil {
			parent = -1
		}
		sp := tr.begin("serve.handler", r.URL.Path, parent)
		defer tr.end(sp)
		h.ServeHTTP(w, r)
	})
}

// serveSetupReps is how many extra server lifetimes without traffic
// serve_mixed starts for a stable setup_s median.
const serveSetupReps = 5

func runServeMixed(ctx context.Context, cfg *runConfig, t *tally, m metrics) error {
	n := serveScriptLen
	if cfg.tiny {
		n = 24
	}
	script := requestScript(cfg.seed, n)
	check, err := newServeChecker(cfg)
	if err != nil {
		return err
	}
	session := func(name string, tr *tracer) serveSession {
		return serveSession{
			dir: filepath.Join(cfg.out, name), script: script, clients: serveClients,
			sessionCap: serveSessionCap, check: check, t: t, tr: tr,
		}
	}

	var setups, cpus []float64
	var first serveOut
	var firstHost passHost
	for i := 0; i < serveSetupReps; i++ {
		s := session(fmt.Sprintf("setup-%d", i), nil)
		s.script = nil
		out, err := s.run(ctx)
		if err != nil {
			return err
		}
		setups = append(setups, out.setup.Seconds())
	}
	var lastDir string
	deadline := time.Now().Add(cfg.seconds)
	for pass := 0; pass == 0 || (!cfg.trace && time.Now().Before(deadline)); pass++ {
		s := session(fmt.Sprintf("store-%d", pass), nil)
		var out serveOut
		h, err := measurePass(func() (err error) {
			out, err = s.run(ctx)
			return err
		})
		if err != nil {
			return err
		}
		cpus = append(cpus, h.cpuS)
		if pass == 0 {
			first, firstHost = out, h
		}
		setups = append(setups, out.setup.Seconds())
		lastDir = s.dir
	}
	for i, c := range check.others {
		for _, d := range c.unreferenced() {
			fmt.Fprintf(cfg.log, "campaignbench: serve_mixed campaign seed %d digest (no reference recorded): %s\n", serveCampaignSeeds[i], d)
		}
	}

	// The golden campaign, back from the last pass's store.
	st, err := rhvpp.OpenArtifactStore(lastDir)
	if err != nil {
		return err
	}
	golden, _, err := rhvpp.CachedCampaign(ctx, rhvpp.GoldenOptions(), st, nil)
	if err != nil {
		return err
	}

	if !cfg.trace {
		m.set("setup_s", median(setups), "s")
		m.set("cpu_s", median(cpus), "s")
		rh, err := golden.RowHammer(ctx)
		if err != nil {
			return err
		}
		section5Of(rh).set(m)
		return nil
	}

	wall := first.wall.Seconds()
	setPassMetrics(m, wall, float64(len(script))/wall, quantile(first.lat, 0.5), quantile(first.lat, 0.99), firstHost)
	traced, err := session("store-traced", cfg.tr).run(ctx)
	if err != nil {
		return err
	}
	setServeMetrics(m, traced, len(script))
	m.set("trace.overhead_pct", 100*(traced.wall.Seconds()-wall)/wall, "%")
	m.set("trace.unaccounted_pct", unaccountedPct(cfg.tr.snapshot(), traced.root), "%")
	m.set("spice.mc_runs", float64(traced.mcRuns), "count")
	m.set("spice.no_converge", float64(traced.noConverge), "count")
	if err := encodeProbe(ctx, golden, catalogIDs(), m); err != nil {
		return err
	}
	o := rhvpp.GoldenOptions()
	if err := probeLayers(ctx, o, cfg.seed, m); err != nil {
		return err
	}
	return goldenProbe(ctx, cfg, t, m)
}

// setServeMetrics records the server layer's per-cache-outcome latencies
// and its /v1/statusz counts.
func setServeMetrics(m metrics, out serveOut, requests int) {
	for _, state := range []string{"compute", "disk", "mem"} {
		l := out.byCache[state]
		m.set("serve.latency_ms."+state+".p50", quantile(l, 0.5), "ms")
		m.set("serve.latency_ms."+state+".p99", quantile(l, 0.99), "ms")
		m.set("serve.latency_samples."+state, float64(len(l)), "count")
	}
	m.set("serve.computations", float64(out.stats.Computations), "count")
	m.set("serve.disk_hits", float64(out.stats.DiskHits), "count")
	m.set("serve.mem_hits", float64(out.stats.MemHits), "count")
	m.set("serve.mem_hit_ratio", float64(out.stats.MemHits)/float64(max(requests, 1)), "ratio")
}
