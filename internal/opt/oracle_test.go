package opt_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/randprog"
	"repro/internal/specsuite"
)

// The sparse ConstProp keeps per-block state only for registers that
// cross block boundaries. These tests hold it to the dense reference
// (opt.DenseConstProp, every register in every block) on the IR the
// compiler actually feeds it: the same listing and the same changed bit.

// ladder is compile-gen's size ladder of randprog shapes (modules ×
// functions per module), from small programs to the Section 3.5
// production size.
var ladder = []struct{ modules, funcs int }{{2, 4}, {4, 6}, {6, 10}, {10, 14}}

// ladderConfig is randprog's production-code configuration at one
// ladder shape.
func ladderConfig(modules, funcs int) randprog.Config {
	return randprog.Config{
		Modules: modules, Funcs: funcs, Stmts: 6, Depth: 2, ExprDepth: 3,
		BoundedCallDepth: true,
	}
}

// oracleProgram is one named source set of the oracle corpus.
type oracleProgram struct {
	name    string
	sources []string
}

// oracleCorpus returns the 14 specsuite programs and randprog programs
// at every ladder shape; -short keeps one seed per shape.
func oracleCorpus() []oracleProgram {
	var progs []oracleProgram
	for _, b := range specsuite.All() {
		progs = append(progs, oracleProgram{b.Name, b.Sources})
	}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, sh := range ladder {
		for _, seed := range seeds {
			progs = append(progs, oracleProgram{
				fmt.Sprintf("randprog-%dx%d-s%d", sh.modules, sh.funcs, seed),
				randprog.Generate(seed, ladderConfig(sh.modules, sh.funcs)),
			})
		}
	}
	return progs
}

func frontend(t *testing.T, pr oracleProgram) *ir.Program {
	t.Helper()
	p, err := driver.Frontend(pr.sources)
	if err != nil {
		t.Fatalf("%s: %v", pr.name, err)
	}
	return p
}

// checkSame runs the sparse and the dense ConstProp on clones of f and
// fails on any difference in the rewritten IR or the changed bit.
func checkSame(t *testing.T, label string, f *ir.Func) {
	t.Helper()
	sparse, dense := f.Clone(f.QName), f.Clone(f.QName)
	cs, cd := opt.ConstProp(sparse), opt.DenseConstProp(dense)
	if cs != cd {
		t.Errorf("%s %s: changed = %v, dense reference says %v", label, f.QName, cs, cd)
	}
	if got, want := sparse.String(), dense.String(); got != want {
		t.Errorf("%s %s: sparse ConstProp diverged from the dense reference\ninput:\n%s\nsparse:\n%s\ndense:\n%s",
			label, f.QName, f, got, want)
	}
}

// TestConstPropMatchesDenseOnFrontendIR covers every function straight
// out of the front end.
func TestConstPropMatchesDenseOnFrontendIR(t *testing.T) {
	for _, pr := range oracleCorpus() {
		for _, f := range frontend(t, pr).AllFuncs() {
			checkSame(t, pr.name, f)
		}
	}
}

// TestConstPropMatchesDenseInOptimizeLoop covers the input of every
// ConstProp of Optimize's rounds, advancing one copy through the
// pipeline by hand.
func TestConstPropMatchesDenseInOptimizeLoop(t *testing.T) {
	for _, pr := range oracleCorpus() {
		for _, f := range frontend(t, pr).AllFuncs() {
			cur := f.Clone(f.QName)
			for round := 0; round < opt.MaxRounds; round++ {
				checkSame(t, fmt.Sprintf("%s round %d", pr.name, round), cur)
				changed := opt.ConstProp(cur)
				changed = opt.Cleanup(cur) || changed
				changed = opt.LocalCSE(cur) || changed
				changed = opt.DCE(cur, nil) || changed
				changed = opt.Cleanup(cur) || changed
				if !changed {
					break
				}
			}
		}
	}
}

// TestConstPropMatchesDenseAfterHLO covers the large inlined and cloned
// routines HLO emits at budgets 100 and 200, whole-program and one
// module at a time.
func TestConstPropMatchesDenseAfterHLO(t *testing.T) {
	for _, pr := range oracleCorpus() {
		for _, budget := range []int{100, 200} {
			for _, whole := range []bool{false, true} {
				label := fmt.Sprintf("%s b%d whole=%v", pr.name, budget, whole)
				p := frontend(t, pr)
				opts := core.DefaultOptions()
				opts.Budget = budget
				scopes := []core.Scope{core.WholeProgram()}
				if !whole {
					scopes = scopes[:0]
					for _, m := range p.Modules {
						scopes = append(scopes, core.SingleModule(m.Name))
					}
				}
				for _, sc := range scopes {
					if _, err := core.RunChecked(p, sc, opts); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
				for _, f := range p.AllFuncs() {
					checkSame(t, label, f)
				}
			}
		}
	}
}

// hand assembles a function with numParams parameters from blocks.
func hand(numParams int, numRegs int32, blocks ...[]ir.Instr) *ir.Func {
	f := opt.BuildFunc(numRegs, blocks...)
	f.NumParams = numParams
	return f
}

// TestConstPropMatchesDenseOnEdgeCases covers the register classes
// where the sparse and the dense environments differ most.
func TestConstPropMatchesDenseOnEdgeCases(t *testing.T) {
	r := ir.RegOp
	c := ir.ConstOp
	cases := map[string]*ir.Func{
		// r1 and r3 are read before written only in unreachable block 1.
		"unreachable-read": hand(0, 4,
			[]ir.Instr{{Op: ir.Mov, Dst: 1, A: c(5)}, {Op: ir.Jmp, Then: 2}},
			[]ir.Instr{{Op: ir.Add, Dst: 2, A: r(1), B: r(3)}, {Op: ir.Ret, A: r(2)}},
			[]ir.Instr{{Op: ir.Mov, Dst: 3, A: r(1)}, {Op: ir.Ret, A: r(3)}},
		),
		// r0 is overwritten before any read, r1 is never read, r2 is
		// read in a later block.
		"params": hand(3, 5,
			[]ir.Instr{{Op: ir.Mov, Dst: 0, A: c(7)}, {Op: ir.Add, Dst: 3, A: r(0), B: c(1)}, {Op: ir.Jmp, Then: 1}},
			[]ir.Instr{{Op: ir.Add, Dst: 4, A: r(2), B: r(3)}, {Op: ir.Ret, A: r(4)}},
		),
		// r1 is read at the loop head before the body writes it; r2 is
		// constant on entry but changes on the back edge.
		"loop-back-edge": hand(1, 5,
			[]ir.Instr{{Op: ir.Mov, Dst: 1, A: c(0)}, {Op: ir.Mov, Dst: 2, A: c(3)}, {Op: ir.Jmp, Then: 1}},
			[]ir.Instr{
				{Op: ir.CmpLT, Dst: 3, A: r(1), B: r(0)},
				{Op: ir.Br, A: r(3), Then: 2, Else: 3},
			},
			[]ir.Instr{
				{Op: ir.Add, Dst: 1, A: r(1), B: r(2)},
				{Op: ir.Mov, Dst: 2, A: c(1)},
				{Op: ir.Jmp, Then: 1},
			},
			[]ir.Instr{{Op: ir.Add, Dst: 4, A: r(1), B: r(2)}, {Op: ir.Ret, A: r(4)}},
		),
		// A call without a destination writes nothing: r1 keeps its
		// constant across it and into the next block.
		"call-no-dst": hand(1, 3,
			[]ir.Instr{
				{Op: ir.Mov, Dst: 1, A: c(4)},
				{Op: ir.Call, Dst: ir.NoReg, Callee: "m:g", Args: []ir.Operand{r(0), r(1)}},
				{Op: ir.Jmp, Then: 1},
			},
			[]ir.Instr{{Op: ir.Mul, Dst: 2, A: r(1), B: c(2)}, {Op: ir.Ret, A: r(2)}},
		),
		// The code address reaches the indirect call from another block.
		"icall-cross-block": hand(1, 3,
			[]ir.Instr{{Op: ir.Mov, Dst: 1, A: ir.FuncOp("m:g")}, {Op: ir.Jmp, Then: 1}},
			[]ir.Instr{
				{Op: ir.ICall, Dst: 2, A: r(1), Args: []ir.Operand{r(0)}},
				{Op: ir.Ret, A: r(2)},
			},
		),
	}
	for name, f := range cases {
		checkSame(t, name, f)
	}

	// The cases must exercise what they name, not just agree.
	f := cases["loop-back-edge"].Clone("m:t")
	opt.ConstProp(f)
	if in := f.Blocks[2].Instrs[0]; in.B.Kind != ir.KindReg {
		t.Errorf("loop-back-edge: value changed on the back edge folded to a constant: %s", in.String())
	}
	f = cases["call-no-dst"].Clone("m:t")
	opt.ConstProp(f)
	if in := f.Blocks[1].Instrs[0]; in.Op != ir.Mov || !in.A.IsConst() || in.A.Val != 8 {
		t.Errorf("call-no-dst: constant did not survive the call: %s", in.String())
	}
	f = cases["icall-cross-block"].Clone("m:t")
	opt.ConstProp(f)
	if in := f.Blocks[1].Instrs[0]; in.Op != ir.Call || in.Callee != "m:g" {
		t.Errorf("icall-cross-block: indirect call not made direct: %s", in.String())
	}
}
