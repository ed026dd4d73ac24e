package main

import (
	"context"
	"runtime"
	"strings"
	"time"

	irregular "repro"
	"repro/internal/cfg"
	"repro/internal/lang"
	"repro/internal/sem"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric, in BENCHMARK.json order. A
// layer a workload leaves idle reads 0 there (no server or gateway on
// compile-corpus).
var layerMetrics = []layerMetric{
	{"lang.parse_us", "us"},
	{"lang.parse_allocs", "count"},
	{"sem.check_us", "us"},
	{"passes.inline_us", "us"},
	{"passes.ipcp_us", "us"},
	{"passes.scalar_us", "us"},
	{"passes.reduction_us", "us"},
	{"cfg.hcg_us", "us"},
	{"cfg.hcg_allocs", "count"},
	{"parallel.parallelize_us", "us"},
	{"parallel.loops_analyzed", "count"},
	{"property.us", "us"},
	{"property.queries", "count"},
	{"property.nodes_visited", "count"},
	{"property.cache_hit_ratio", "ratio"},
	{"property.derived", "count"},
	{"expr.intern_hit_ratio", "ratio"},
	{"expr.intern_misses", "count"},
	{"pipeline.shared_hit_ratio", "ratio"},
	{"lint.us", "us"},
	{"interp.run_us", "us"},
	{"server.compile_ms_p50", "ms"},
	{"server.lint_ms_p50", "ms"},
	{"server.run_ms_p50", "ms"},
	{"server.wire_ms_p50", "ms"},
	{"api.resp_kib_per_op", "KiB"},
	{"rescache.hit_ratio", "ratio"},
	{"rescache.evictions_per_kop", "1/kop"},
	{"rescache.mib", "MiB"},
	{"gateway.route_ms_p50", "ms"},
	{"gateway.upstream_ms_p50", "ms"},
	{"gateway.retries", "count"},
	{"gateway.affinity_ratio", "ratio"},
	{"obs.traced_overhead_ratio", "ratio"},
	{"runtime.gc_cycles_per_kop", "1/kop"},
	{"runtime.gc_cpu_fraction", "ratio"},
}

// layerCtx carries what the traced run measured to the workload's
// service-side layer readout, and collects the metrics.
type layerCtx struct {
	m       map[string]float64
	ops     int                        // stream operations of the traced run
	clients map[string][]time.Duration // client-observed span durations by kind
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// libraryLayers times calls into each compiler layer's public functions,
// one program at a time on one goroutine, over a workload's distinct
// programs: parse and semantic check directly, the passes, parallelizer
// and property analysis from a library compilation's phase breakdown and
// counters, the HCG build directly on the compiled program, and one
// simulated P=8 run. Times are medians over the programs; counts are sums.
func libraryLayers(ctx context.Context, progs []program, m map[string]float64) error {
	var parse, check, inline, ipcp, scalar, reduction, hcg, par, prop, run []float64
	var parseAllocs, hcgAllocs uint64
	var loops, queries, nodes, cacheHits, cacheMisses, derived, internHits, internMisses int64
	var ms runtime.MemStats
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	for _, p := range progs {
		runtime.ReadMemStats(&ms)
		a0 := ms.Mallocs
		t0 := time.Now()
		prog, err := lang.Parse(p.src)
		parse = append(parse, us(time.Since(t0)))
		runtime.ReadMemStats(&ms)
		parseAllocs += ms.Mallocs - a0
		if err != nil {
			return err
		}
		t0 = time.Now()
		if _, err := sem.Check(prog); err != nil {
			return err
		}
		check = append(check, us(time.Since(t0)))

		res, err := irregular.CompileContext(ctx, p.src, irregular.Options{})
		if err != nil {
			return err
		}
		var sc float64
		for _, ph := range res.Phases {
			switch {
			case ph.Name == "inline":
				inline = append(inline, us(ph.Duration))
			case ph.Name == "ipcp":
				ipcp = append(ipcp, us(ph.Duration))
			case strings.HasPrefix(ph.Name, "scalar-"):
				sc += us(ph.Duration)
			case ph.Name == "reduction":
				reduction = append(reduction, us(ph.Duration))
			case ph.Name == "parallelize":
				par = append(par, us(ph.Duration))
			}
		}
		scalar = append(scalar, sc)
		prop = append(prop, us(res.PropertyTime))
		st, is := res.PropertyStats, res.InternStats
		loops += int64(len(res.Reports))
		queries += int64(st.Queries)
		nodes += int64(st.NodesVisited)
		cacheHits += int64(st.CacheHits)
		cacheMisses += int64(st.CacheMisses)
		derived += int64(st.DerivedMonotonic + st.DerivedInjective + st.DerivedDistance)
		internHits += is.Hits
		internMisses += is.Misses

		runtime.ReadMemStats(&ms)
		a0 = ms.Mallocs
		t0 = time.Now()
		if _, err := cfg.BuildHCGCtx(ctx, res.Program, 1); err != nil {
			return err
		}
		hcg = append(hcg, us(time.Since(t0)))
		runtime.ReadMemStats(&ms)
		hcgAllocs += ms.Mallocs - a0

		t0 = time.Now()
		if _, err := res.RunContext(ctx, irregular.RunOptions{Processors: 8}); err != nil {
			return err
		}
		run = append(run, us(time.Since(t0)))
	}
	n := float64(len(progs))
	m["lang.parse_us"] = median(parse)
	m["lang.parse_allocs"] = float64(parseAllocs) / n
	m["sem.check_us"] = median(check)
	m["passes.inline_us"] = median(inline)
	m["passes.ipcp_us"] = median(ipcp)
	m["passes.scalar_us"] = median(scalar)
	m["passes.reduction_us"] = median(reduction)
	m["cfg.hcg_us"] = median(hcg)
	m["cfg.hcg_allocs"] = float64(hcgAllocs) / n
	m["parallel.parallelize_us"] = median(par)
	m["parallel.loops_analyzed"] = float64(loops)
	m["property.us"] = median(prop)
	m["property.queries"] = float64(queries)
	m["property.nodes_visited"] = float64(nodes)
	m["property.cache_hit_ratio"] = ratio(float64(cacheHits), float64(cacheHits+cacheMisses))
	m["property.derived"] = float64(derived)
	m["expr.intern_hit_ratio"] = ratio(float64(internHits), float64(internHits+internMisses))
	m["expr.intern_misses"] = float64(internMisses)
	m["interp.run_us"] = median(run)
	return nil
}

// serverLayers reads the irrd-side layers from settled /metrics scrapes
// of every backend: each median from the backend with the most samples of
// it, counters summed. ops is the operations sent to the fleet over its
// lifetime, warm-up included (the scrapes are cumulative), and respBytes
// the response bytes they received.
func serverLayers(c *layerCtx, docs []*metricsDoc, ops, respBytes int64) {
	p50 := func(name string) float64 {
		var most int64
		var ms float64
		for _, d := range docs {
			if n, m := d.hist(name); n > most {
				most, ms = n, m
			}
		}
		return ms
	}
	sum := func(name string) float64 {
		var s float64
		for _, d := range docs {
			s += float64(d.Counters[name])
		}
		return s
	}
	c.m["server.compile_ms_p50"] = p50("irrd_request_duration:endpoint=compile")
	c.m["server.lint_ms_p50"] = p50("irrd_request_duration:endpoint=lint")
	c.m["server.run_ms_p50"] = p50("irrd_request_duration:endpoint=run")
	c.m["lint.us"] = p50("phase.duration:phase=lint") * 1e3
	clientMs := ms(medianDuration(c.clients["compile"]))
	c.m["server.wire_ms_p50"] = clientMs - c.m["server.compile_ms_p50"]
	c.m["api.resp_kib_per_op"] = ratio(float64(respBytes), float64(ops)) / 1024
	hits, misses := sum("rescache_hits_total"), sum("rescache_misses_total")
	c.m["rescache.hit_ratio"] = ratio(hits, hits+misses)
	c.m["rescache.evictions_per_kop"] = ratio(1000*sum("rescache_evictions_total"), float64(ops))
	c.m["rescache.mib"] = sum("rescache_bytes") / (1 << 20)
	sh, sm := sum("property.shared_hits"), sum("property.shared_misses")
	c.m["pipeline.shared_hit_ratio"] = ratio(sh, sh+sm)
}

func medianDuration(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sortDurations(s)
	return quantile(s, 0.5)
}
