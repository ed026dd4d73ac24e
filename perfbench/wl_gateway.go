package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"sort"

	"repro/internal/api"
	"repro/internal/gateway"
	"repro/internal/server"
)

// gatewayEnv is the gateway-repeat workload: irrgw in front of two irrd
// backends, over a small warm corpus. One operation re-opens a program
// chosen by a Zipf draw — POST /v1/compile, then /v1/run at P=8 — and
// both are response-cache hits, so the analysis layers stay idle.
// Set-up opens every program once (compile, lint, run): the service's
// write path and the lint and shared-analysis layers.
type gatewayEnv struct {
	w        *wire
	backends []*irrd
	gw       *gateway.Gateway
	gts      *httptest.Server
	cl       *api.Client // the gateway

	progs   []program
	picks   []int
	home    []string // backend that served each program's warm-up compile
	lintErr []error  // each program's warm-up lint audit finding errors
	recs    []proxied
}

// proxied is what one operation's responses were.
type proxied struct {
	compile, run uint64 // hashes of the raw response bodies
	backend      string
}

// The warm corpus: the kernels plus 24 generated programs, ranked by a
// permutation and requested with P(rank k) ∝ (gatewayZipfV+k)^-gatewayZipfS
// (Go's rand.Zipf parameters). Corpus and ranks come from the fixed
// gatewaySeed, so which programs are hot — and what a hit costs — is the
// same in every run. The draws are stratified: every block of
// gatewayBlock operations holds each rank in exact Zipf proportion, in
// an order the workload seed shuffles.
const (
	gatewayPrograms = 24
	gatewayZipfS    = 1.1
	gatewayZipfV    = 2.0
	gatewayBlock    = 250
)

// zipfBlock returns gatewayBlock ranks out of n, each rank k appearing in
// proportion to (gatewayZipfV+k)^-gatewayZipfS (largest-remainder
// rounding).
func zipfBlock(n int) []int {
	w := make([]float64, n)
	total := 0.0
	for k := range w {
		w[k] = math.Pow(gatewayZipfV+float64(k), -gatewayZipfS)
		total += w[k]
	}
	var block []int
	rest := make([]int, n)
	for k := range w {
		exact := w[k] / total * gatewayBlock
		for j := 0; j < int(exact); j++ {
			block = append(block, k)
		}
		w[k] = exact - math.Floor(exact)
		rest[k] = k
	}
	sort.SliceStable(rest, func(a, b int) bool { return w[rest[a]] > w[rest[b]] })
	for _, k := range rest[:gatewayBlock-len(block)] {
		block = append(block, k)
	}
	return block
}

// requestID is the fixed X-Request-Id of every request for program k:
// irrd echoes the ID into compile responses, so a fixed one makes all
// responses for a program byte-comparable.
func requestID(k int) string { return fmt.Sprintf("perfbench-%d", k) }

func openGateway(seed int64, streamLen int) (env, error) {
	e := &gatewayEnv{w: newWire(), recs: make([]proxied, streamLen)}
	e.progs = append(kernelPrograms(), progenSet(gatewaySeed, "g", gatewayPrograms, gatewayProgen)...)
	rank := rand.New(rand.NewSource(gatewaySeed)).Perm(len(e.progs))
	r := rand.New(rand.NewSource(mix(seed, "zipf", 0)))
	block := zipfBlock(len(e.progs))
	e.picks = make([]int, streamLen)
	for i := range e.picks {
		if i%gatewayBlock == 0 {
			r.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		e.picks[i] = rank[block[i%gatewayBlock]]
	}

	var urls []string
	for i := 0; i < 2; i++ {
		d := startIrrd(server.Config{}, e.w.hc)
		e.backends = append(e.backends, d)
		urls = append(urls, d.ts.URL)
	}
	gw, err := gateway.New(gateway.Config{Backends: urls})
	if err != nil {
		e.close()
		return nil, err
	}
	gw.Start()
	e.gw = gw
	e.gts = httptest.NewServer(gw)
	e.cl = api.NewClient(e.gts.URL, api.WithHTTPClient(e.w.hc))

	// Warm-up: open every corpus program once — compile, lint, run — so
	// every timed request is a cache hit on its home backend. The lint
	// compiles again with the diagnostics phase, replaying the compile's
	// property verdicts from the backend's shared analysis cache: the
	// lint and shared-tier layers work here, in set-up. It runs on
	// GOMAXPROCS workers, as the peak phase does: with both CPUs busy the
	// set-up time sees less of the hypervisor's steal.
	e.home = make([]string, len(e.progs))
	e.lintErr = make([]error, len(e.progs))
	errs := make([]error, len(e.progs))
	forEach(len(e.progs), func(k int) { errs[k] = e.warm(k) })
	if err := errors.Join(errs...); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// warm opens program k once — compile, lint, run — and records its home
// backend and any lint audit error.
func (e *gatewayEnv) warm(k int) error {
	c, err := e.w.post(context.Background(), e.cl, "compile", e.compileBody(k), requestID(k))
	if err == nil {
		var lr api.LintResponse
		_, err = e.w.postJSON(context.Background(), e.cl, "lint", api.CompileRequest{Src: e.progs[k].src}, &lr, requestID(k))
		if err == nil && lr.Counts.Errors > 0 {
			e.lintErr[k] = fmt.Errorf("%s: lint audit reports %d errors", e.progs[k].name, lr.Counts.Errors)
		}
	}
	if err == nil {
		_, err = e.w.post(context.Background(), e.cl, "run", e.runBody(k), requestID(k))
	}
	if err != nil {
		return fmt.Errorf("warm-up of %s: %w", e.progs[k].name, err)
	}
	e.home[k] = c.backend
	return nil
}

func (e *gatewayEnv) compileBody(k int) []byte {
	b, _ := json.Marshal(api.CompileRequest{Src: e.progs[k].src}) // a string field always encodes
	return b
}

func (e *gatewayEnv) runBody(k int) []byte {
	b, _ := json.Marshal(api.RunRequest{CompileRequest: api.CompileRequest{Src: e.progs[k].src}, Processors: 8})
	return b
}

func (e *gatewayEnv) op(ctx context.Context, t *tracer, i int) error {
	k := e.picks[i]
	end := t.span("compile")
	c, err := e.w.post(ctx, e.cl, "compile", e.compileBody(k), requestID(k))
	end()
	if err != nil {
		return err
	}
	end = t.span("run")
	r, err := e.w.post(ctx, e.cl, "run", e.runBody(k), requestID(k))
	end()
	if err != nil {
		return err
	}
	e.recs[i] = proxied{compile: hashBytes(c.body), run: hashBytes(r.body), backend: c.backend}
	return nil
}

func (e *gatewayEnv) compileRun(ctx context.Context, p program) (*outcome, error) {
	return serviceCompileRun(ctx, e.w, e.cl, p)
}

// serviceCompileRun compiles and runs one program through a service
// endpoint and reads its verdicts and simulated time from the responses.
func serviceCompileRun(ctx context.Context, w *wire, cl *api.Client, p program) (*outcome, error) {
	req := api.CompileRequest{Src: p.src}
	var cr api.CompileResponse
	if _, err := w.postJSON(ctx, cl, "compile", req, &cr, ""); err != nil {
		return nil, err
	}
	var m struct {
		Loops []loopVerdict `json:"loops"`
	}
	if err := json.Unmarshal(cr.Metrics, &m); err != nil {
		return nil, fmt.Errorf("decoding compile metrics: %w", err)
	}
	var rr api.RunResponse
	if _, err := w.postJSON(ctx, cl, "run", api.RunRequest{CompileRequest: req, Processors: 8}, &rr, ""); err != nil {
		return nil, err
	}
	return &outcome{loops: m.Loops, summary: cr.Summary, cycles: rr.Time}, nil
}

// direct sends a request straight to the named backend.
func (e *gatewayEnv) direct(ctx context.Context, backend, endpoint string, body []byte, id string) (*reply, error) {
	for _, d := range e.backends {
		if d.host() == backend {
			return e.w.post(ctx, d.cl, endpoint, body, id)
		}
	}
	return nil, fmt.Errorf("unknown backend %q", backend)
}

// check requires every proxied response to be byte-identical to the
// owning backend's direct response to the same request, the cached
// compile response to report the verdicts of a library compile of the
// same source (which must itself pass the schedule and Table 3 checks),
// and the program's warm-up lint audit to have found no error.
func (e *gatewayEnv) check(ctx context.Context, n int, v *violations) {
	wants := map[string]directRef{} // by program and backend
	for i := 0; i < n; i++ {
		k, rec := e.picks[i], e.recs[i]
		key := fmt.Sprintf("%d@%s", k, rec.backend)
		wt, ok := wants[key]
		if !ok {
			wt = e.reference(ctx, k, rec.backend)
			wants[key] = wt
		}
		switch {
		case wt.err != nil:
			v.add(i, wt.err)
		case rec.compile != wt.compile || rec.run != wt.run:
			v.add(i, fmt.Errorf("%s: proxied response differs from backend %s's direct response", e.progs[k].name, rec.backend))
		}
	}
}

// directRef is a backend's direct answer for one program, or why it
// could not serve as a reference.
type directRef struct {
	compile, run uint64 // hashes of the raw response bodies
	err          error
}

func (e *gatewayEnv) reference(ctx context.Context, k int, backend string) (w directRef) {
	c, err := e.direct(ctx, backend, "compile", e.compileBody(k), requestID(k))
	if err != nil {
		w.err = err
		return w
	}
	r, err := e.direct(ctx, backend, "run", e.runBody(k), requestID(k))
	if err != nil {
		w.err = err
		return w
	}
	w.compile, w.run = hashBytes(c.body), hashBytes(r.body)
	var cr api.CompileResponse
	if err := json.NewDecoder(bytes.NewReader(c.body)).Decode(&cr); err != nil {
		w.err = fmt.Errorf("decoding compile response: %w", err)
		return w
	}
	ref := libraryReference(e.progs[k])
	switch {
	case ref.err != nil:
		w.err = ref.err
	case e.lintErr[k] != nil:
		w.err = e.lintErr[k]
	case verdictHash(cr.Summary) != ref.verdicts:
		w.err = fmt.Errorf("%s: %w", e.progs[k].name, errMismatch)
	}
	return w
}

func (e *gatewayEnv) sample() []program { return e.progs }

func (e *gatewayEnv) layers(ctx context.Context, c *layerCtx) ([]string, error) {
	var docs []*metricsDoc
	var notes []string
	for _, d := range e.backends {
		doc, note, err := settledScrape(ctx, e.w, d)
		if err != nil {
			return nil, err
		}
		docs = append(docs, doc)
		if note != "" {
			notes = append(notes, note)
		}
	}
	serverLayers(c, docs, int64(c.ops+len(e.progs)), e.w.respBytes.Load())
	gdoc, err := scrape(ctx, e.w.hc, e.gts.URL)
	if err != nil {
		return nil, err
	}
	_, c.m["gateway.route_ms_p50"] = gdoc.hist("irrgw_route_duration:endpoint=compile")
	var n, sum float64
	for _, d := range e.backends {
		cnt, p50 := gdoc.hist("irrgw_upstream_duration:backend=" + d.host())
		n += float64(cnt)
		sum += float64(cnt) * p50
	}
	if n > 0 {
		c.m["gateway.upstream_ms_p50"] = sum / n
	}
	c.m["gateway.retries"] = float64(gdoc.Counters["irrgw_retries_total"])
	home := 0
	for i := 0; i < c.ops; i++ {
		if e.recs[i].backend == e.home[e.picks[i]] {
			home++
		}
	}
	c.m["gateway.affinity_ratio"] = float64(home) / float64(max(1, c.ops))
	return notes, nil
}

func (e *gatewayEnv) close() {
	if e.gts != nil {
		e.gts.Close()
	}
	if e.gw != nil {
		e.gw.Close()
	}
	for _, d := range e.backends {
		d.close()
	}
	e.w.close()
}
