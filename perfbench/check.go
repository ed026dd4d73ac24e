package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"

	irregular "repro"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/sem"
)

// The independent correctness checks. None of them compares against a
// stored copy of earlier output: every reference is recomputed from the
// source in the same run.

// observable is the final state of one execution: every global scalar
// and array, and the PRINT output.
type observable struct {
	scalars map[string]float64
	reals   map[string][]float64
	ints    map[string][]int64
	output  string
}

// execute runs a checked program on the simulated machine and captures
// its observable state.
func execute(info *sem.Info, procs int, sched interp.Schedule, poison bool) (*observable, error) {
	var out strings.Builder
	in := interp.New(info, interp.Options{
		Machine:  machine.New(machine.Origin2000, procs),
		Schedule: sched,
		Poison:   poison,
		MaxSteps: 200_000_000,
		Out:      &out,
	})
	if err := in.Run(); err != nil {
		return nil, err
	}
	obs := &observable{
		scalars: map[string]float64{},
		reals:   map[string][]float64{},
		ints:    map[string][]int64{},
		output:  out.String(),
	}
	for name, sym := range info.Globals {
		var err error
		switch {
		case sym.Kind == sem.ScalarSym && sym.Type == lang.TReal:
			obs.scalars[name], err = in.GlobalReal(name)
		case sym.Kind == sem.ScalarSym && sym.Type == lang.TInteger:
			var v int64
			v, err = in.GlobalInt(name)
			obs.scalars[name] = float64(v)
		case sym.Kind == sem.ArraySym && sym.Type == lang.TReal:
			obs.reals[name], err = in.GlobalArrayReal(name)
		case sym.Kind == sem.ArraySym && sym.Type == lang.TInteger:
			obs.ints[name], err = in.GlobalArrayInt(name)
		}
		if err != nil {
			return nil, err
		}
	}
	return obs, nil
}

// closeTo compares two reals within a relative tolerance: a parallel
// reduction sums in another order than the serial loop.
func closeTo(a, b float64) bool {
	if a == b || math.IsNaN(a) && math.IsNaN(b) { // equal infinities, or both NaN
		return true
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// isPoison reports whether v is the interpreter's poison sentinel of a
// fresh private copy (NaN for reals, a large negative integer).
func isPoison(v float64) bool { return math.IsNaN(v) || v == -0x5EAD5EAD5EAD }

// sameState reports the first difference between the serial run of the
// source as parsed (want) and the reverse-order P=8 run of the compiled
// program (got). Two differences are not faults and are allowed:
//   - a global scalar whose every store the passes removed as dead — the
//     compiled program's own serial run, serial, leaves it at its initial
//     value 0 where want does not — must be 0 in got too;
//   - an element of an array or scalar privatized by a parallel loop may
//     hold the poison sentinel afterwards: the loop copies out the last
//     chunk's private copy, whose elements that chunk never wrote are
//     undefined. Every other element must match.
func sameState(want, serial, got *observable, private map[string]bool) error {
	for _, name := range sortedKeys(want.scalars) {
		w, g := want.scalars[name], got.scalars[name]
		if serial.scalars[name] == 0 {
			w = 0
		}
		if !closeTo(w, g) && !(private[name] && isPoison(g)) {
			return fmt.Errorf("scalar %s = %v, serial run gives %v", name, g, w)
		}
	}
	for _, name := range sortedKeys(want.reals) {
		w, g := want.reals[name], got.reals[name]
		if len(g) != len(w) {
			return fmt.Errorf("array %s has %d elements, want %d", name, len(g), len(w))
		}
		for i := range w {
			if !closeTo(w[i], g[i]) && !(private[name] && isPoison(g[i])) {
				return fmt.Errorf("%s(%d) = %v, serial source run gives %v", name, i+1, g[i], w[i])
			}
		}
	}
	for _, name := range sortedKeys(want.ints) {
		w, g := want.ints[name], got.ints[name]
		if len(g) != len(w) {
			return fmt.Errorf("array %s has %d elements, want %d", name, len(g), len(w))
		}
		for i := range w {
			if w[i] != g[i] && !(private[name] && isPoison(float64(g[i]))) {
				return fmt.Errorf("%s(%d) = %d, serial source run gives %d", name, i+1, g[i], w[i])
			}
		}
	}
	if !outputsClose(want.output, got.output) {
		return fmt.Errorf("output %q, serial source run prints %q", got.output, want.output)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// outputsClose compares PRINT outputs token by token, numbers within the
// reduction tolerance.
func outputsClose(a, b string) bool {
	fa, fb := strings.Fields(a), strings.Fields(b)
	if len(fa) != len(fb) {
		return false
	}
	for i := range fa {
		if fa[i] == fb[i] {
			continue
		}
		var x, y float64
		if _, err := fmt.Sscan(fa[i], &x); err != nil {
			return false
		}
		if _, err := fmt.Sscan(fb[i], &y); err != nil {
			return false
		}
		if !closeTo(x, y) {
			return false
		}
	}
	return true
}

// checkSchedule runs the compiled program at P=8 with its parallel chunks
// in reverse order and fresh private copies poisoned, and requires the
// state of a serial run of the source as parsed, before any pass (see
// sameState for the two allowed differences). A correct parallelization
// gives the serial result under any chunk order.
func checkSchedule(src string, res *irregular.Result) error {
	prog, err := lang.Parse(src)
	if err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		return fmt.Errorf("semantic check: %w", err)
	}
	want, err := execute(info, 1, interp.Forward, false)
	if err != nil {
		return fmt.Errorf("serial source run: %w", err)
	}
	serial, err := execute(res.Info, 1, interp.Forward, false)
	if err != nil {
		return fmt.Errorf("serial run: %w", err)
	}
	got, err := execute(res.Info, 8, interp.Reverse, true)
	if err != nil {
		return fmt.Errorf("reverse-order P=8 run: %w", err)
	}
	private := map[string]bool{}
	for _, lr := range res.Reports {
		if lr.Parallel {
			for _, name := range lr.Private {
				private[name] = true
			}
		}
	}
	if err := sameState(want, serial, got, private); err != nil {
		return fmt.Errorf("reverse-order P=8 run: %w", err)
	}
	return nil
}

// verdictLines extracts the per-loop verdict lines of a compilation
// summary (header lines carry timings and are dropped).
func verdictLines(summary string) string {
	var b strings.Builder
	for _, line := range strings.Split(summary, "\n") {
		if strings.HasPrefix(line, "  PARALLEL ") || strings.HasPrefix(line, "  serial ") {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// verdictHash fingerprints a summary's verdict lines.
func verdictHash(summary string) uint64 { return hashBytes([]byte(verdictLines(summary))) }

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// loopVerdict is one loop's name and verdict as a workload's output
// reports it.
type loopVerdict struct {
	Name     string `json:"name"`
	Parallel bool   `json:"parallel"`
}

// checkTarget requires the Table 3 target loop of a kernel to be parallel
// in Full mode, as the paper reports.
func checkTarget(p program, loops []loopVerdict) error {
	if p.kernel == nil {
		return nil
	}
	for _, l := range loops {
		if strings.Contains(l.Name, p.kernel.TargetLoop) {
			if !l.Parallel {
				return fmt.Errorf("%s: Table 3 target loop %s is serial", p.name, l.Name)
			}
			return nil
		}
	}
	return fmt.Errorf("%s: no loop matches Table 3 target %q", p.name, p.kernel.TargetLoop)
}

// libraryVerdicts lists a library compilation's loop verdicts.
func libraryVerdicts(res *irregular.Result) []loopVerdict {
	out := make([]loopVerdict, len(res.Reports))
	for i, lr := range res.Reports {
		out[i] = loopVerdict{Name: lr.Name, Parallel: lr.Parallel}
	}
	return out
}

// reference is the library's answer for one source: a private-cache Full
// mode compilation, checked under the reverse schedule.
type reference struct {
	verdicts uint64 // verdictHash of the library summary
	err      error  // a failed compile or a failed schedule/target check
}

// libraryReference compiles src through the library and runs the
// schedule and Table 3 checks on the result.
func libraryReference(p program) reference {
	res, err := irregular.Compile(p.src, irregular.Options{})
	if err != nil {
		return reference{err: fmt.Errorf("%s: library compile: %w", p.name, err)}
	}
	ref := reference{verdicts: verdictHash(res.Summary())}
	if err := checkSchedule(p.src, res); err != nil {
		ref.err = fmt.Errorf("%s: %w", p.name, err)
	} else if err := checkTarget(p, libraryVerdicts(res)); err != nil {
		ref.err = err
	}
	return ref
}

// violations collects the failed operations of a run, at most one entry
// per operation, keeping the first few messages for the report.
type violations struct {
	ops   map[int]bool
	wrong int // operations whose output a check found wrong
	msgs  []string
}

// fail records an operation that failed outright (an error response).
func (v *violations) fail(op int, err error) {
	if err != nil && !v.ops[op] {
		v.record(op, err)
	}
}

// add records an operation whose output a check found wrong. An
// operation that already failed outright has no output to check.
func (v *violations) add(op int, err error) {
	if err != nil && !v.ops[op] {
		v.wrong++
		v.record(op, err)
	}
}

func (v *violations) record(op int, err error) {
	if v.ops == nil {
		v.ops = map[int]bool{}
	}
	v.ops[op] = true
	if len(v.msgs) < 8 {
		v.msgs = append(v.msgs, fmt.Sprintf("op %d: %v", op, err))
	}
}

func (v *violations) count() int { return len(v.ops) }

var errMismatch = errors.New("verdicts differ from a library compile of the same source")
