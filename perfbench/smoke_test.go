package main

import (
	"context"
	"errors"
	"math"
	"testing"

	irregular "repro"
	"repro/internal/kernels"
)

// smokeConfig shrinks a run to a few dozen operations per phase.
func smokeConfig(t *testing.T) config {
	return config{
		seed:     7,
		lightOps: 30,
		peakOps:  30,
		rounds:   2,
		setups:   1,
		traceOps: 20,
		traceDir: t.TempDir(),
	}
}

var endToEnd = []string{
	"setup_s", "op_ms_p50.peak", "op_ms_p99.peak", "peak_rps", "cpu_ms_per_op",
	"allocs_per_op", "alloc_kib_per_op", "heap_live_mib",
	"parallel_loops", "sim_kcycles_geomean",
}

// TestWorkloadsSmoke runs every workload end to end at a small size: no
// operation may fail, every check must pass, and every end-to-end
// metric must be reported and non-zero.
func TestWorkloadsSmoke(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			res, rep, err := measure(context.Background(), sp, smokeConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d of %d: %v", res.Correct, res.Failed, res.Attempted, rep.Violations)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, name := range endToEnd {
				if m, ok := res.Metrics[name]; !ok || m.Value <= 0 || math.IsNaN(m.Value) {
					t.Errorf("%s = %+v, want a positive value", name, m)
				}
			}
		})
	}
}

// TestTracedSmoke runs the traced variant of every workload and requires
// every per-layer metric, and the server layers where a server runs.
func TestTracedSmoke(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			res, rep, err := traced(context.Background(), sp, smokeConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || len(rep.Notes) != 0 {
				t.Fatalf("correct=%v failed=%d notes=%v violations=%v", res.Correct, res.Failed, rep.Notes, rep.Violations)
			}
			if len(res.Metrics) != len(layerMetrics) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(layerMetrics))
			}
			for _, name := range []string{"lang.parse_us", "parallel.parallelize_us", "interp.run_us", "obs.traced_overhead_ratio"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
			if sp.name == "gateway-repeat" {
				for _, name := range []string{"server.compile_ms_p50", "server.lint_ms_p50", "lint.us", "rescache.hit_ratio"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s = 0 on gateway-repeat", name)
					}
				}
				if res.Metrics["gateway.affinity_ratio"].Value != 1 {
					t.Errorf("gateway.affinity_ratio = %v, want 1", res.Metrics["gateway.affinity_ratio"].Value)
				}
			}
		})
	}
}

// TestScheduleCheckCatchesWrongState feeds sameState a reverse-order run
// that differs from the serial run, and one that only differs where the
// difference is allowed.
func TestScheduleCheckCatchesWrongState(t *testing.T) {
	want := &observable{
		scalars: map[string]float64{"s": 3, "dead": 7},
		reals:   map[string][]float64{"a": {1, 2, 3}, "priv": {4, 5}},
		ints:    map[string][]int64{},
	}
	serial := &observable{scalars: map[string]float64{"s": 3, "dead": 0}}
	ok := &observable{
		scalars: map[string]float64{"s": 3, "dead": 0},
		reals:   map[string][]float64{"a": {1, 2, 3}, "priv": {4, math.NaN()}},
	}
	private := map[string]bool{"priv": true}
	if err := sameState(want, serial, ok, private); err != nil {
		t.Fatalf("allowed differences rejected: %v", err)
	}
	bad := &observable{
		scalars: map[string]float64{"s": 3, "dead": 0},
		reals:   map[string][]float64{"a": {1, 2.5, 3}, "priv": {4, 5}},
	}
	if sameState(want, serial, bad, private) == nil {
		t.Fatal("a wrong shared array element passed")
	}
	poisoned := &observable{
		scalars: map[string]float64{"s": 3, "dead": 0},
		reals:   map[string][]float64{"a": {1, math.NaN(), 3}, "priv": {4, 5}},
	}
	if sameState(want, serial, poisoned, private) == nil {
		t.Fatal("poison in a shared array passed")
	}
	// A scalar whose final value is wrong in the compiled program's own
	// serial run, not removed, is still compared with the source's.
	liveSerial := &observable{scalars: map[string]float64{"s": 4, "dead": 0}}
	live := &observable{
		scalars: map[string]float64{"s": 4, "dead": 0},
		reals:   map[string][]float64{"a": {1, 2, 3}, "priv": {4, 5}},
	}
	if sameState(want, liveSerial, live, private) == nil {
		t.Fatal("a wrong live scalar passed")
	}
}

// TestVerdictChecksCatchMismatch corrupts recorded outputs and requires
// each workload's check to count the operation as failed.
func TestVerdictChecksCatchMismatch(t *testing.T) {
	ctx := context.Background()
	e, err := openCorpus(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := e.op(ctx, nil, i); err != nil {
			t.Fatal(err)
		}
	}
	var v violations
	e.check(ctx, 4, &v)
	if v.count() != 0 {
		t.Fatalf("clean operations flagged: %v", v.msgs)
	}
	e.(*corpusEnv).fps[2] ^= 1
	e.check(ctx, 4, &v)
	if v.count() != 1 || v.wrong != 1 || !v.ops[2] {
		t.Fatalf("corrupted verdicts of op 2 not caught: %v", v.msgs)
	}

	g, err := openGateway(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	for i := 0; i < 3; i++ {
		if err := g.op(ctx, nil, i); err != nil {
			t.Fatal(err)
		}
	}
	g.(*gatewayEnv).recs[1].run ^= 1
	v = violations{}
	g.check(ctx, 3, &v)
	if v.count() != 1 || !v.ops[1] {
		t.Fatalf("a proxied response differing from the backend's not caught: %v", v.msgs)
	}
}

// TestTargetCheck requires the Table 3 check to reject a serial target
// loop and accept the library's verdicts.
func TestTargetCheck(t *testing.T) {
	k := kernels.TRFD(kernels.Small)
	p := program{name: k.Name, src: k.Source, kernel: k}
	res, err := irregular.Compile(k.Source, irregular.Options{})
	if err != nil {
		t.Fatal(err)
	}
	loops := libraryVerdicts(res)
	if err := checkTarget(p, loops); err != nil {
		t.Fatal(err)
	}
	for i := range loops {
		loops[i].Parallel = false
	}
	if checkTarget(p, loops) == nil {
		t.Fatal("a serial Table 3 target loop passed")
	}
}

// TestViolationsCountOncePerOperation: an operation that failed outright
// is not checked again, and is not a wrong output.
func TestViolationsCountOncePerOperation(t *testing.T) {
	var v violations
	v.fail(1, errors.New("status 500"))
	v.add(1, errMismatch)
	v.add(2, errMismatch)
	v.add(2, errMismatch)
	if v.count() != 2 || v.wrong != 1 {
		t.Fatalf("count=%d wrong=%d, want 2 and 1", v.count(), v.wrong)
	}
}
