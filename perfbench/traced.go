package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/obs"
)

// traced is the traced run: the per-layer metrics. It sets up once, runs
// the light rate twice over fresh stream operations — untraced, then with
// the benchmark's own spans around every call into the program (and, on
// compile-corpus, the compiler's telemetry on) — and compares their CPU
// per operation for the tracing overhead. It then probes the compiler
// layers directly on the workload's programs, reads the servers' settled
// /metrics, and writes the spans as Perfetto traces.
func traced(ctx context.Context, sp spec, cfg config) (*result, *report, error) {
	rep := newReport(sp, cfg, true)
	n := cfg.traceOps
	e, err := sp.open(cfg.seed, 2*n)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()

	runtime.GC()
	u0 := sample()
	plain := drive(ctx, "untraced", sp.light, n, 0, slots(false), e.op)
	u1 := sample()
	tracers := slots(true)
	runtime.GC()
	u2 := sample()
	tr := drive(ctx, "traced", sp.light, n, n, tracers, e.op)
	u3 := sample()
	rep.Phases = []*phase{plain, tr}

	c := &layerCtx{m: map[string]float64{}, ops: 2 * n, clients: map[string][]time.Duration{}}
	for _, name := range layerMetrics {
		c.m[name.name] = 0
	}
	for _, t := range tracers {
		for kind, d := range t.durs {
			c.clients[kind] = append(c.clients[kind], d...)
		}
	}
	c.m["obs.traced_overhead_ratio"] = ratio(float64(u3.cpu-u2.cpu), float64(u1.cpu-u0.cpu))
	c.m["runtime.gc_cycles_per_kop"] = ratio(1000*float64(u3.gcs-u2.gcs+u1.gcs-u0.gcs), float64(2*n))
	c.m["runtime.gc_cpu_fraction"] = ratio(u3.gcCPU-u2.gcCPU+u1.gcCPU-u0.gcCPU, u3.allCPU-u2.allCPU+u1.allCPU-u0.allCPU)

	notes, err := e.layers(ctx, c)
	if err != nil {
		return nil, nil, err
	}
	rep.Notes = notes
	if err := libraryLayers(ctx, e.sample(), c.m); err != nil {
		return nil, nil, err
	}

	var v violations
	phaseErrors(rep.Phases, 0, &v)
	e.check(ctx, 2*n, &v)
	rep.Violations = v.msgs

	files, err := writeTraces(cfg.traceDir, sp.name, tracers)
	if err != nil {
		return nil, nil, err
	}
	rep.Traces = files

	m := map[string]metric{}
	for _, lm := range layerMetrics {
		m[lm.name] = metric{c.m[lm.name], lm.unit}
	}
	return &result{Correct: v.wrong == 0, Attempted: 2 * n, Failed: v.count(), Metrics: m}, rep, nil
}

// writeTraces exports each load worker's spans in the Chrome trace-event
// format Perfetto loads, one file per worker.
func writeTraces(dir, workload string, tracers []*tracer) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var files []string
	for i, t := range tracers {
		name := filepath.Join(dir, fmt.Sprintf("%s-worker%d.json", workload, i))
		f, err := os.Create(name)
		if err != nil {
			return nil, err
		}
		err = obs.WriteChromeTrace(f, t.rec.Events())
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("writing %s: %w", name, err)
		}
		files = append(files, name)
	}
	return files, nil
}
