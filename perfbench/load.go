package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// tracer records the benchmark's own spans around its calls into the
// program, one per load worker: obs spans nest by one depth counter, so
// concurrent workers each get their own recorder. A nil tracer records
// nothing and costs nothing.
type tracer struct {
	rec  *obs.Recorder
	durs map[string][]time.Duration // client-observed duration per span kind
}

func newTracer() *tracer {
	return &tracer{rec: obs.New(), durs: map[string][]time.Duration{}}
}

var noSpan = func() {}

// span opens a span of kind; the returned function closes it.
func (t *tracer) span(kind string) func() {
	if t == nil {
		return noSpan
	}
	sp := t.rec.StartSpan(kind)
	return func() { t.durs[kind] = append(t.durs[kind], sp.End()) }
}

// opFunc runs operation i of a workload's stream.
type opFunc func(ctx context.Context, t *tracer, i int) error

// phase is the outcome of one load phase.
type phase struct {
	Name   string  `json:"name"`
	Rate   float64 `json:"rate"` // offered rate; 0 for a closed loop
	Ops    int     `json:"ops"`
	Failed int     `json:"failed"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	// LateP99Ms and LateMaxMs say how late the generator handed operations
	// to a worker (timer slack plus waiting for a free worker).
	LateP99Ms float64 `json:"gen_late_ms_p99"`
	LateMaxMs float64 `json:"gen_late_ms_max"`
	// Stretch is how much longer than scheduled the generator took to
	// hand out all operations: 1 when it kept pace, the offered over the
	// achieved rate when a backlog grew.
	Stretch float64 `json:"dispatch_stretch"`
	Seconds float64 `json:"seconds"`
	// What else ran while the phase did: the collector's cycles, their
	// stop-the-world pauses and the CPU its assists took from operations,
	// and the time the host kept this machine's CPUs from running at all
	// (steal time, all CPUs).
	GCCycles   uint64  `json:"gc_cycles"`
	GCPauseMs  float64 `json:"gc_pause_ms"`
	GCAssistMs float64 `json:"gc_assist_ms"`
	StealMs    float64 `json:"steal_ms"`

	lat, late []time.Duration // per operation, in stream order
	errs      []error
}

// drive runs one phase: it sends n operations at a fixed rate —
// operation k is due at start + k/rate whatever happened before — with at
// most one in flight per tracer slot. Each operation is timed from its due time, so a stall
// also counts against the operations queued behind it. Rate 0 runs a
// closed loop instead: each worker takes the next operation as soon as
// it is free, and each operation is timed from when a worker took it.
func drive(ctx context.Context, name string, rate float64, n, first int, tracers []*tracer, op opFunc) *phase {
	lat := make([]time.Duration, n)
	late := make([]time.Duration, n)
	errs := make([]error, n)
	type job struct {
		k   int
		due time.Time
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for _, t := range tracers {
		wg.Add(1)
		go func(t *tracer) {
			defer wg.Done()
			for j := range jobs {
				if rate == 0 {
					j.due = time.Now()
				}
				late[j.k] = time.Since(j.due)
				errs[j.k] = op(ctx, t, first+j.k)
				lat[j.k] = time.Since(j.due)
			}
		}(t)
	}
	u0 := sample()
	start := time.Now()
	for k := 0; k < n; k++ {
		due := start
		if rate > 0 {
			due = start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		jobs <- job{k, due}
	}
	close(jobs)
	wg.Wait()
	seconds := time.Since(start).Seconds()
	u1 := sample()

	p := &phase{Name: name, Rate: rate, Ops: n, Seconds: seconds, lat: lat, late: late, errs: errs,
		GCCycles: u1.gcs - u0.gcs, GCPauseMs: ms(u1.gcPause - u0.gcPause),
		GCAssistMs: 1e3 * (u1.gcAssist - u0.gcAssist), StealMs: ms(u1.steal - u0.steal)}
	if rate > 0 && n > 1 {
		span := float64(n-1) / rate
		p.Stretch = (span + (late[n-1] - late[0]).Seconds()) / span
	}
	p.summarize()
	return p
}

// summarize derives the failure count and quantiles from the samples.
func (p *phase) summarize() {
	p.Failed = 0
	for _, err := range p.errs {
		if err != nil {
			p.Failed++
		}
	}
	lat := append([]time.Duration(nil), p.lat...)
	late := append([]time.Duration(nil), p.late...)
	sortDurations(lat)
	sortDurations(late)
	p.P50Ms, p.P95Ms, p.P99Ms = ms(quantile(lat, 0.50)), ms(quantile(lat, 0.95)), ms(quantile(lat, 0.99))
	p.LateP99Ms, p.LateMaxMs = ms(quantile(late, 0.99)), ms(late[len(late)-1])
}

// pool joins rounds of one phase run at the same rate into one phase:
// samples pooled in stream order, durations and host figures summed, and
// the largest stretch of any round.
func pool(name string, rounds []*phase) *phase {
	p := &phase{Name: name, Rate: rounds[0].Rate}
	for _, r := range rounds {
		p.Ops += r.Ops
		p.Seconds += r.Seconds
		p.Stretch = math.Max(p.Stretch, r.Stretch)
		p.GCCycles += r.GCCycles
		p.GCPauseMs += r.GCPauseMs
		p.GCAssistMs += r.GCAssistMs
		p.StealMs += r.StealMs
		p.lat = append(p.lat, r.lat...)
		p.late = append(p.late, r.late...)
		p.errs = append(p.errs, r.errs...)
	}
	p.summarize()
	return p
}

func sortDurations(d []time.Duration) { sort.Slice(d, func(i, j int) bool { return d[i] < d[j] }) }

// quantile is the nearest-rank quantile of sorted samples: for 1000
// samples, q=0.99 leaves ten samples above it.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median of float samples (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
