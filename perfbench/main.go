// Command perfbench is the end-to-end benchmark of the compiler and its
// service. One seeded load generator drives one of two workloads in
// this process — the library directly (compile-corpus) or irrgw over two
// irrds on loopback (gateway-repeat) — with at most GOMAXPROCS operations
// in flight, checks every output independently, and prints one JSON
// result line last.
//
//	perfbench -workload compile-corpus -seed 1 -seconds 40 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it runs
// the traced variant and reports the per-layer metrics. README.md gives
// the design, the corpus make-up and reference figures.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is one workload set up and ready for traffic.
type env interface {
	// op runs stream operation i and records its outputs for check.
	op(ctx context.Context, t *tracer, i int) error
	// compileRun compiles and runs (P=8) one program through the
	// workload's path.
	compileRun(ctx context.Context, p program) (*outcome, error)
	// check verifies the outputs of stream operations [0, n).
	check(ctx context.Context, n int, v *violations)
	// sample is the workload's distinct programs for the library-layer
	// probes of the traced run.
	sample() []program
	// layers adds the service-side per-layer metrics; it returns notes
	// on anything it could not read in full.
	layers(ctx context.Context, c *layerCtx) ([]string, error)
	close()
}

// outcome is a compile-and-run result as the workload's path reports it.
type outcome struct {
	loops   []loopVerdict
	summary string
	cycles  uint64
}

// spec is one workload: its rates and set-up.
type spec struct {
	name string
	// light is the offered rate of the open-loop phase, operations per
	// second; it keeps the two CPUs about 15% busy.
	light float64
	// peak is about the rate the reference host sustains in the closed
	// loop; it only sizes the peak phase.
	peak float64
	open func(seed int64, streamLen int) (env, error)
}

var specs = []spec{
	{name: "compile-corpus", light: 60, peak: 400, open: openCorpus},
	{name: "gateway-repeat", light: 150, peak: 1200, open: openGateway},
}

// lightShare is the share of the run length the light phase is scheduled
// to take; the closed-loop peak phase takes about the rest on the
// reference host.
const lightShare = 0.5

// config sizes one run.
type config struct {
	seed     int64
	lightOps int    // operations of the open-loop light phase
	peakOps  int    // operations of the closed-loop peak phase
	rounds   int    // interleaved rounds the phases are split into
	setups   int    // set-ups per run; setup_s is their median
	traceOps int    // operations per phase of the traced run
	traceDir string // where the traced run writes its Perfetto traces
}

// defaultConfig sizes a run of the given length in seconds: the light
// phase is scheduled to take lightShare of it, and the peak phase the
// rest at the workload's nominal peak rate. The traced run's two phases
// at the light rate take half of it each.
func defaultConfig(sp spec, seed int64, seconds int) config {
	return config{
		seed:     seed,
		lightOps: int(float64(seconds) * lightShare * sp.light),
		peakOps:  int(float64(seconds) * (1 - lightShare) * sp.peak),
		rounds:   4,
		setups:   5,
		traceOps: int(float64(seconds) / 2 * sp.light),
		traceDir: ".bench_build/perfbench-trace",
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the diagnostic line printed before the result: host facts,
// each phase's generator behaviour and the check outcome.
type report struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Traced     bool      `json:"traced"`
	NumCPU     int       `json:"num_cpu"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	SetupS     []float64 `json:"setup_s,omitempty"`
	// PeakRSSMiB is VmHWM at the end of the fixed work. It is no
	// end-to-end metric: it depends on when the collector ran relative to
	// the heaviest operations running together, and spread up to a third
	// of its median from run to run.
	PeakRSSMiB float64  `json:"peak_rss_mib,omitempty"`
	Phases     []*phase `json:"phases"`
	Violations []string `json:"violations,omitempty"`
	Notes      []string `json:"notes,omitempty"`
	Traces     []string `json:"perfetto_traces,omitempty"`
}

func main() {
	workload := flag.String("workload", "", "compile-corpus or gateway-repeat")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 40, "measured run length: the open-loop light phase is scheduled to take half of it, the closed-loop peak phase about the rest")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()
	var sp *spec
	for i := range specs {
		if specs[i].name == *workload {
			sp = &specs[i]
		}
	}
	if sp == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload compile-corpus|gateway-repeat, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	cfg := defaultConfig(*sp, *seed, *seconds)
	var res *result
	var rep *report
	var err error
	if *trace == 1 {
		res, rep, err = traced(context.Background(), *sp, cfg)
	} else {
		res, rep, err = measure(context.Background(), *sp, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range []any{map[string]any{"report": rep}, res} {
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
	}
}

func newReport(sp spec, cfg config, traced bool) *report {
	return &report{
		Workload: sp.name, Seed: cfg.seed, Traced: traced,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
}

// slots is one load-worker slot per CPU: at most GOMAXPROCS operations
// in flight. nil tracers record nothing.
func slots(traced bool) []*tracer {
	t := make([]*tracer, runtime.GOMAXPROCS(0))
	if traced {
		for i := range t {
			t[i] = newTracer()
		}
	}
	return t
}

// usage is a snapshot of the process's resource counters and of the
// machine's steal time.
type usage struct {
	cpu      time.Duration
	mallocs  uint64
	bytes    uint64
	gcs      uint64
	gcPause  time.Duration // stop-the-world pauses, summed
	gcCPU    float64
	gcAssist float64 // CPU seconds operations spent assisting the collector
	allCPU   float64
	steal    time.Duration
}

func sample() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF cannot fail
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/gc/mark/assist:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: uint64(ms.NumGC),
		gcPause: time.Duration(ms.PauseTotalNs),
		gcCPU:   s[0].Value.Float64(), gcAssist: s[1].Value.Float64(), allCPU: s[2].Value.Float64(),
		steal: stealTime(),
	}
}

// stealTime reads the machine's steal time — how long a hypervisor kept
// its CPUs from running, summed over CPUs — from /proc/stat, in clock
// ticks of 10 ms; 0 where it cannot be read.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// forEach runs f(0..n-1) on GOMAXPROCS goroutines and waits for them.
func forEach(n int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// setUp opens the workload cfg.setups times and keeps the last one;
// set-up time is the median. The earlier instances are closed first.
func setUp(sp spec, cfg config, streamLen int) (env, []float64, error) {
	var e env
	var times []float64
	for s := 0; s < cfg.setups; s++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		e, err = sp.open(cfg.seed, streamLen)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return e, times, nil
}

// measure is the untraced run: the end-to-end metrics.
func measure(ctx context.Context, sp spec, cfg config) (*result, *report, error) {
	rep := newReport(sp, cfg, false)
	n := cfg.lightOps / cfg.rounds * cfg.rounds
	np := cfg.peakOps / cfg.rounds * cfg.rounds
	ops := n + np // stream: light [0, n), peak [n, ops)
	e, setups, err := setUp(sp, cfg, ops)
	if err != nil {
		return nil, nil, err
	}
	defer e.close()
	rep.SetupS = setups
	tracers := slots(false)

	// The phases run as interleaved rounds — light, peak, light, peak, …
	// — so each samples the host over the whole run rather than one
	// stretch of it, with garbage collected before every round. Light's
	// CPU and allocations are summed over its rounds. The peak rounds run
	// a closed loop, GOMAXPROCS operations always in flight.
	var lights, peaks []*phase
	var lightCPU time.Duration
	var mallocs, bytes uint64
	per, perPeak := n/cfg.rounds, np/cfg.rounds
	for r := 0; r < cfg.rounds; r++ {
		runtime.GC()
		u0 := sample()
		lights = append(lights, drive(ctx, "light", sp.light, per, r*per, tracers, e.op))
		u1 := sample()
		lightCPU += u1.cpu - u0.cpu
		mallocs += u1.mallocs - u0.mallocs
		bytes += u1.bytes - u0.bytes
		runtime.GC()
		peaks = append(peaks, drive(ctx, "peak", 0, perPeak, n+r*perPeak, tracers, e.op))
	}
	light, peak := pool("light", lights), pool("peak", peaks)
	rep.Phases = []*phase{light, peak}
	// Memory is read at the end of the fixed work.
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	if rep.PeakRSSMiB, err = peakRSSMiB(); err != nil {
		return nil, nil, err
	}

	var v violations
	phaseErrors(rep.Phases, 0, &v)
	loops, kcycles := verdictMetrics(ctx, e, ops, &v)
	e.check(ctx, ops, &v)
	rep.Violations = v.msgs

	m := map[string]metric{
		"setup_s":             {median(setups), "s"},
		"op_ms_p50.peak":      {peak.P50Ms, "ms"},
		"op_ms_p99.peak":      {peak.P99Ms, "ms"},
		"peak_rps":            {float64(peak.Ops) / peak.Seconds, "1/s"},
		"cpu_ms_per_op":       {ms(lightCPU) / float64(n), "ms"},
		"allocs_per_op":       {float64(mallocs) / float64(n), "count"},
		"alloc_kib_per_op":    {float64(bytes) / float64(n) / 1024, "KiB"},
		"heap_live_mib":       {float64(mem.HeapAlloc) / (1 << 20), "MiB"},
		"parallel_loops":      {float64(loops), "count"},
		"sim_kcycles_geomean": {kcycles, "kcycles"},
	}
	return &result{Correct: v.wrong == 0, Attempted: ops + len(verdictSet()), Failed: v.count(), Metrics: m}, rep, nil
}

// phaseErrors records every failed operation of the phases, whose
// stream indices start at first and run on consecutively.
func phaseErrors(phases []*phase, first int, v *violations) {
	for _, p := range phases {
		for k, err := range p.errs {
			v.fail(first+k, err)
		}
		first += p.Ops
	}
}

// verdictMetrics compiles and runs the fixed verdict set through the
// workload's path: parallel_loops is the number of loops parallelized,
// sim_kcycles_geomean the geometric mean of the simulated P=8 run times
// in kilocycles. Each program is an operation with index base+k whose
// verdicts must match a library compile and pass the schedule and
// Table 3 checks.
func verdictMetrics(ctx context.Context, e env, base int, v *violations) (int, float64) {
	set := verdictSet()
	loops, logSum := 0, 0.0
	for k, p := range set {
		out, err := e.compileRun(ctx, p)
		if err != nil {
			v.fail(base+k, fmt.Errorf("%s: %w", p.name, err))
			continue
		}
		ref := libraryReference(p)
		switch {
		case ref.err != nil:
			v.add(base+k, ref.err)
		case verdictHash(out.summary) != ref.verdicts:
			v.add(base+k, fmt.Errorf("%s: %w", p.name, errMismatch))
		default:
			v.add(base+k, checkTarget(p, out.loops))
		}
		for _, l := range out.loops {
			if l.Parallel {
				loops++
			}
		}
		logSum += math.Log(float64(out.cycles) / 1e3)
	}
	return loops, math.Exp(logSum / float64(len(set)))
}
