package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/par"
	"repro/internal/randprog"
)

// rung is one step of compile-gen's size ladder: randprog's module and
// function counts, a band of unoptimized compile cost (Σ size², the
// paper's Figure 2 model) and how many programs a pass draws from it.
// The source-size window holds nearly every program of the cost band;
// it only spares the generator parsing candidates that cannot fit.
type rung struct {
	modules, funcs   int
	bytesLo, bytesHi int
	costLo, costHi   int64
	count            int
}

// ladder runs from small programs to the Section 3.5 production size
// (10 modules x 14 functions, the hlobench -prod shape). The cost bands
// keep each rung's compile work comparable from one seed to the next,
// so different seeds draw different programs of the same weight; their
// upper ends stop short of the few programs, dominated by one huge
// routine, whose compile takes several times the rung's mean.
var ladder = []rung{
	{2, 4, 1_100, 3_500, 20_000, 45_000, 40},
	{4, 6, 2_200, 8_500, 60_000, 120_000, 40},
	{6, 10, 3_700, 16_000, 150_000, 300_000, 25},
	{10, 14, 8_000, 25_000, 350_000, 700_000, 15},
}

// stepsLo and stepsHi bound the reference interpreter's step count on a
// program's short input: every program does a comparable amount of
// run-time work, so total cycles move little between seeds.
const stepsLo, stepsHi = 1000, 4000

// program is one generated compile-gen input with its expected
// behaviour.
type program struct {
	rseed   int64 // randprog seed
	rung    int
	sources []string
	inputs  []int64
	cost    int64 // Σ size² of the unoptimized program
	// output and exit are the reference interpreter's result on the
	// unoptimized program: the oracle for the compiled code.
	output []int64
	exit   int64
}

// generatePrograms draws compile-gen's programs for a seed: each rung
// has a random source of its own, seeded from the workload seed, and
// keeps the first randprog candidates inside its bands. Rungs are drawn
// on the worker pool. The same seed always yields the same programs.
func generatePrograms(seed int64) ([]program, error) {
	r := rand.New(rand.NewSource(seed))
	rungSeeds := make([]int64, len(ladder))
	for i := range rungSeeds {
		rungSeeds[i] = r.Int63()
	}
	rungs := make([][]program, len(ladder))
	err := par.Do(workers, len(ladder), func(ri int) error {
		var err error
		rungs[ri], err = drawRung(ri, rungSeeds[ri])
		return err
	})
	if err != nil {
		return nil, err
	}
	var progs []program
	for _, rp := range rungs {
		progs = append(progs, rp...)
	}
	return progs, nil
}

func drawRung(ri int, seed int64) ([]program, error) {
	rg := ladder[ri]
	cfg := randprog.Config{
		Modules: rg.modules, Funcs: rg.funcs, Stmts: 6, Depth: 2, ExprDepth: 3,
		BoundedCallDepth: true,
	}
	r := rand.New(rand.NewSource(seed))
	var progs []program
	for tries := 0; len(progs) < rg.count; tries++ {
		if tries == 100_000 {
			return nil, fmt.Errorf("compile-gen: rung %d: %d programs in its bands after %d tries", ri, len(progs), tries)
		}
		rs := r.Int63()
		pr, ok, err := candidate(rs, cfg, rg)
		if err != nil {
			return nil, err
		}
		if ok {
			pr.rung = ri
			progs = append(progs, pr)
		}
	}
	return progs, nil
}

// candidate generates one program and reports whether it falls inside
// the rung's bands.
func candidate(rs int64, cfg randprog.Config, rg rung) (program, bool, error) {
	srcs := randprog.Generate(rs, cfg)
	n := 0
	for _, src := range srcs {
		n += len(src)
	}
	if n < rg.bytesLo || n >= rg.bytesHi {
		return program{}, false, nil
	}
	p, err := driver.Frontend(srcs)
	if err != nil {
		return program{}, false, fmt.Errorf("compile-gen: randprog seed %d: %w", rs, err)
	}
	var cost int64
	p.Funcs(func(f *ir.Func) bool {
		cost += int64(f.Size()) * int64(f.Size())
		return true
	})
	if cost < rg.costLo || cost >= rg.costHi {
		return program{}, false, nil
	}
	inputs := make([]int64, randprog.MinInputs)
	for i := range inputs {
		inputs[i] = (rs >> (8 * i)) & 15
	}
	res, err := interp.Run(p, interp.Options{Inputs: inputs})
	if err != nil {
		return program{}, false, fmt.Errorf("compile-gen: randprog seed %d: %w", rs, err)
	}
	if res.Steps < stepsLo || res.Steps >= stepsHi {
		return program{}, false, nil
	}
	return program{rseed: rs, sources: srcs, inputs: inputs, cost: cost, output: res.Output, exit: res.ExitCode}, true, nil
}

// compileGen compiles each generated program once at the paper's peak
// configuration (cross-module, profile, budget 100) and simulates it
// once on its short input. HLO dominates it and no simulation repeats.
type compileGen struct {
	matrix
	progs []program
}

func newCompileGen(seed int64) (*compileGen, error) {
	progs, err := generatePrograms(seed)
	if err != nil {
		return nil, err
	}
	g := &compileGen{progs: progs}
	for i, pr := range progs {
		g.sets = append(g.sets, pr.sources)
		g.trains = append(g.trains, pr.inputs)
		g.jobs = append(g.jobs, job{
			label: fmt.Sprintf("compile-gen/rung%d/%d", pr.rung, pr.rseed),
			set:   i, cross: true, profile: true, inputs: pr.inputs,
			hlo: core.DefaultOptions(),
		})
		g.order = append(g.order, i)
	}
	sort.SliceStable(g.order, func(a, b int) bool { return progs[g.order[a]].cost > progs[g.order[b]].cost })
	return g, nil
}

func (g *compileGen) pass(ctx context.Context, tr *tracer) (*passResult, error) {
	res, outs, err := g.matrix.pass(ctx, tr)
	if err != nil {
		return nil, err
	}
	for i, o := range outs {
		pr := &g.progs[i]
		if o.exit != pr.exit || !slices.Equal(o.output, pr.output) {
			res.failed++
			fmt.Fprintf(os.Stderr, "%s: output %v exit %d, interpreter says %v exit %d\n",
				g.jobs[i].label, o.output, o.exit, pr.output, pr.exit)
		}
	}
	return res, nil
}

func (g *compileGen) check(context.Context) (int, error) { return 0, nil }
