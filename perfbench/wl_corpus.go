package main

import (
	"context"
	"errors"
	"io"
	"math/rand"

	irregular "repro"
)

// corpusEnv is the compile-corpus workload: one operation compiles the
// next program of a seeded corpus through the library in Full mode, with
// private caches and telemetry off. No HTTP, no response cache.
type corpusEnv struct {
	progs []program
	picks []int    // corpus index of each stream operation
	fps   []uint64 // verdictHash of the summary each operation produced
}

// corpusKinds lays out each block of 25 stream operations: many-loop
// compiles (1) at offsets 0 and 12, kernel compiles (0) at 6 and 18, and
// generated programs (2) everywhere else. The many-loop compiles are 12
// or 13 operations apart, so at the fixed rates two of them never run at
// once, and the latency tail is their own cost rather than a chance
// queue behind one another. Each kind cycles through a seeded
// permutation of its programs, so every phase compiles nearly the same
// multiset of programs whatever the seed.
var corpusKinds = [25]int{1, 2, 2, 2, 2, 2, 0, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 0, 2, 2, 2, 2, 2, 2}

func openCorpus(seed int64, streamLen int) (env, error) {
	c := compileCorpus(seed)
	e := &corpusEnv{fps: make([]uint64, streamLen)}
	r := rand.New(rand.NewSource(mix(seed, "picks", 0)))
	var cycles [3]struct {
		idx  []int
		next int
	}
	for kind, progs := range [][]program{c.kernels, c.many, c.generated} {
		for _, k := range r.Perm(len(progs)) {
			cycles[kind].idx = append(cycles[kind].idx, len(e.progs)+k)
		}
		e.progs = append(e.progs, progs...)
	}
	e.picks = make([]int, streamLen)
	for i := range e.picks {
		cy := &cycles[corpusKinds[i%len(corpusKinds)]]
		e.picks[i] = cy.idx[cy.next%len(cy.idx)]
		cy.next++
	}
	// Warm-up: compile every corpus program once, so code paths, lazily
	// built tables and the heap are at steady state before timing. It
	// runs on GOMAXPROCS workers, as the peak phase does: with both CPUs
	// busy the set-up time sees less of the hypervisor's steal.
	errs := make([]error, len(e.progs))
	forEach(len(e.progs), func(k int) {
		_, errs[k] = irregular.Compile(e.progs[k].src, irregular.Options{})
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *corpusEnv) op(ctx context.Context, t *tracer, i int) error {
	end := t.span("compile")
	res, err := irregular.CompileContext(ctx, e.progs[e.picks[i]].src, irregular.Options{Telemetry: t != nil})
	end()
	if err != nil {
		return err
	}
	e.fps[i] = verdictHash(res.Summary())
	return nil
}

func (e *corpusEnv) compileRun(ctx context.Context, p program) (*outcome, error) {
	res, err := irregular.CompileContext(ctx, p.src, irregular.Options{})
	if err != nil {
		return nil, err
	}
	// Output goes to a writer, as irrd's /v1/run does: the interpreter
	// evaluates (and charges) PRINT arguments only when one is attached.
	rr, err := res.RunContext(ctx, irregular.RunOptions{Processors: 8, Out: io.Discard})
	if err != nil {
		return nil, err
	}
	return &outcome{loops: libraryVerdicts(res), summary: res.Summary(), cycles: rr.Time}, nil
}

// check recompiles every distinct corpus program the stream used, runs
// the schedule and Table 3 checks on it, and requires every operation's
// verdicts to equal that reference.
func (e *corpusEnv) check(ctx context.Context, n int, v *violations) {
	used := map[int]bool{}
	for i := 0; i < n; i++ {
		used[e.picks[i]] = true
	}
	idx := make([]int, 0, len(used))
	for k := range used {
		idx = append(idx, k)
	}
	refs := make([]reference, len(idx))
	forEach(len(idx), func(j int) { refs[j] = libraryReference(e.progs[idx[j]]) })
	byProg := map[int]reference{}
	for j, k := range idx {
		byProg[k] = refs[j]
	}
	for i := 0; i < n; i++ {
		ref := byProg[e.picks[i]]
		switch {
		case ref.err != nil:
			v.add(i, ref.err)
		case e.fps[i] != ref.verdicts:
			v.add(i, errMismatch)
		}
	}
}

func (e *corpusEnv) sample() []program { return e.progs }

func (e *corpusEnv) layers(ctx context.Context, c *layerCtx) ([]string, error) {
	return nil, nil
}

func (e *corpusEnv) close() {}
