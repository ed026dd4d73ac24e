package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/kernels"
	"repro/internal/progen"
)

// program is one F-lite source of a workload's input stream.
type program struct {
	name string
	src  string
	// kernel is the bundled benchmark the source came from (nil for a
	// generated program); its Table 3 target loop must come out parallel.
	kernel *kernels.Kernel
}

// sizeRange is a closed integer range sizes are drawn from uniformly, so
// program cost varies continuously instead of clustering.
type sizeRange struct{ lo, hi int }

func (s sizeRange) draw(r *rand.Rand) int { return s.lo + r.Intn(s.hi-s.lo+1) }

// progenShape bounds the generated programs of one workload: the array
// extent N and the progen block budget.
type progenShape struct{ n, blocks sizeRange }

// The corpus make-up of each workload (README.md lists the same numbers).
var (
	corpusProgen   = progenShape{n: sizeRange{16, 64}, blocks: sizeRange{2, 12}}
	corpusPairs    = sizeRange{5, 20}
	gatewayProgen  = progenShape{n: sizeRange{16, 48}, blocks: sizeRange{2, 8}}
	gatewaySeed    = int64(19990501) // fixed: the warm corpus and its Zipf ranks are the same in every run
	verdictProgen  = progenShape{n: sizeRange{16, 64}, blocks: sizeRange{2, 12}}
	verdictPairs   = []int{5, 10, 15, 20}
	verdictSetSeed = int64(20000607) // fixed: the verdict set is the same in every run
)

// mix derives the generator seed of item i of a seeded stream
// (splitmix64 finalizer), so item i is reproducible without generating
// items 0..i-1.
func mix(seed int64, stream string, i int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(i)
	for _, c := range stream {
		z = z*31 + uint64(c)
	}
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// progenProgram generates one program of a shape drawn from r.
func progenProgram(r *rand.Rand, name string, shape progenShape) program {
	return progenSized(r, name, shape.n.draw(r), shape.blocks.draw(r))
}

// progenSized generates one program of array extent n and block budget
// blocks from r. The program is renamed after name, which makes every
// generated source text distinct even when two draws produce the same
// body — and so a distinct cache key for the service.
func progenSized(r *rand.Rand, name string, n, blocks int) program {
	src := progen.Generate(r, progen.Config{N: n, MaxBlocks: blocks, Subroutines: r.Intn(3) == 0})
	return program{name: name, src: strings.Replace(src, "program fuzz", "program "+name, 1)}
}

// evenly returns n values evenly spaced over s, in an order shuffled by
// r: a seed changes which program gets which size, never the multiset
// of sizes, so the corpus costs the same to compile whatever the seed.
func evenly(r *rand.Rand, n int, s sizeRange) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = s.lo + (2*i+1)*(s.hi-s.lo+1)/(2*n)
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// manyLoopProgram builds a program of `pairs` fill/irregular-update loop
// pairs over distinct arrays. Its compile cost grows superlinearly with
// the pair count: the interprocedural property analysis visits every
// pair.
func manyLoopProgram(name string, pairs int) program {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n  param n = 64\n", name)
	for i := 0; i < pairs; i++ {
		fmt.Fprintf(&b, "  real a%d(n), b%d(n)\n", i, i)
	}
	b.WriteString("  integer i\n  integer x(n)\n")
	b.WriteString("  do i = 1, n\n    x(i) = mod(i * 7, n) + 1\n  end do\n")
	for i := 0; i < pairs; i++ {
		fmt.Fprintf(&b, "  do i = 1, n\n    b%d(i) = real(i)\n  end do\n", i)
		fmt.Fprintf(&b, "  do i = 1, n\n    a%d(x(i)) = a%d(x(i)) + b%d(i)\n  end do\n", i, i, i)
	}
	b.WriteString("  print \"done\", a0(1)\nend\n")
	return program{name: name, src: b.String()}
}

// kernelPrograms returns the eight bundled kernels at their small size
// (the default size makes one simulated P=8 run of trfd cost ~130 ms,
// which would turn every run request of it into an outlier).
func kernelPrograms() []program {
	var out []program
	for _, k := range kernels.All(kernels.Small) {
		out = append(out, program{name: k.Name, src: k.Source, kernel: k})
	}
	return out
}

// progenSet generates n programs of one shape from a seeded stream.
func progenSet(seed int64, stream string, n int, shape progenShape) []program {
	out := make([]program, n)
	for i := range out {
		s := mix(seed, stream, int64(i))
		out[i] = progenProgram(rand.New(rand.NewSource(s)), fmt.Sprintf("%s%d", stream, i), shape)
	}
	return out
}

// corpus is the compile-corpus input set by kind.
type corpus struct{ kernels, generated, many []program }

// compileCorpus builds the compile-corpus input set: the bundled
// kernels, 192 generated programs whose sizes spread evenly over
// corpusProgen, and one many-loop program per pair count in corpusPairs.
func compileCorpus(seed int64) corpus {
	c := corpus{kernels: kernelPrograms()}
	r := rand.New(rand.NewSource(mix(seed, "sizes", 0)))
	ns := evenly(r, 192, corpusProgen.n)
	blocks := evenly(r, 192, corpusProgen.blocks)
	for i := range ns {
		gr := rand.New(rand.NewSource(mix(seed, "c", int64(i))))
		c.generated = append(c.generated, progenSized(gr, fmt.Sprintf("c%d", i), ns[i], blocks[i]))
	}
	for pairs := corpusPairs.lo; pairs <= corpusPairs.hi; pairs++ {
		c.many = append(c.many, manyLoopProgram(fmt.Sprintf("m%d", pairs), pairs))
	}
	return c
}

// verdictSet is the fixed program set behind parallel_loops and
// sim_kcycles_geomean: the kernels, 24 generated programs and four
// many-loop programs, drawn from a constant seed so the two metrics are
// exact counts that move only when verdicts or generated code change.
func verdictSet() []program {
	progs := kernelPrograms()
	progs = append(progs, progenSet(verdictSetSeed, "v", 24, verdictProgen)...)
	for _, pairs := range verdictPairs {
		progs = append(progs, manyLoopProgram(fmt.Sprintf("vm%d", pairs), pairs))
	}
	return progs
}
