package opt

import (
	"sync"

	"repro/internal/ir"
)

// denseConstProp is the dense reference implementation ConstProp
// replaced, kept verbatim as the oracle for the sparse one: every block
// carries a NumRegs-wide environment and every edge meets every
// register. The oracle tests in oracle_test.go require both to produce
// the same IR and the same changed bit.

// denseState is denseConstProp's pooled working memory: one latticeVal slab
// carved into per-block environments plus the out scratch, the
// reached/inWork bit vectors, and the worklist. Pooling it matters:
// the per-visit env clones the pool replaces were the compiler's
// largest allocation source (≈36% of all bytes over a Table 1 run),
// and the GC cycles they forced also drained the simulator's and
// interpreter's state pools on every cell.
type denseState struct {
	slab  []latticeVal
	ins   []env
	marks []bool // reached[0:nb] ++ inWork[nb:2nb]
	work  []int
}

var densePool = sync.Pool{New: func() any { return new(denseState) }}

// denseConstProp performs a forward conditional-constant dataflow over f and
// rewrites the function: operands known constant are substituted,
// foldable instructions become moves of constants, branches on constants
// become jumps, and indirect calls through known function addresses
// become direct calls. It reports whether anything changed.
func denseConstProp(f *ir.Func) bool {
	nb, nr := len(f.Blocks), int(f.NumRegs)
	st := densePool.Get().(*denseState)
	defer densePool.Put(st)
	if need := (nb + 1) * nr; cap(st.slab) < need {
		st.slab = make([]latticeVal, need)
	}
	if cap(st.ins) < nb {
		st.ins = make([]env, nb)
	}
	if cap(st.marks) < 2*nb {
		st.marks = make([]bool, 2*nb)
	}
	ins := st.ins[:nb]
	for i := range ins {
		ins[i] = env(st.slab[i*nr : (i+1)*nr])
	}
	// A block's env is read only after its reached bit is set, and the
	// first touch is a full overwrite (copy below), so stale slab
	// contents never leak between calls; only entry needs clearing.
	reached := st.marks[:nb]
	inWork := st.marks[nb : 2*nb]
	for i := range reached {
		reached[i] = false
		inWork[i] = false
	}
	// Entry: parameters and everything else start varying only when
	// used before definition; the lattice handles that via top.
	entry := ins[0]
	for i := range entry {
		entry[i] = latticeVal{}
	}
	for i := 0; i < f.NumParams; i++ {
		entry[i] = bottom
	}
	reached[0] = true

	work := append(st.work[:0], 0)
	defer func() { st.work = work[:0] }()
	inWork[0] = true
	// out is scratch reused across visits; each ins[s] is a uniquely
	// owned slice (overwritten on first reach), so successor states meet
	// in place instead of clone-merge-compare.
	out := env(st.slab[nb*nr : (nb+1)*nr])
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[bi] = false
		b := f.Blocks[bi]
		copy(out, ins[bi])
		for i := range b.Instrs {
			transfer(&b.Instrs[i], out)
		}
		for _, s := range b.Succs() {
			next := ins[s]
			if !reached[s] {
				copy(next, out)
				reached[s] = true
			} else {
				changed := false
				for r := range out {
					// meet with top is the identity, so top entries of out
					// leave next unchanged.
					m := meet(next[r], out[r])
					v := next[r]
					if m.bot != v.bot || m.set != v.set || !m.op.Eq(v.op) {
						next[r] = m
						changed = true
					}
				}
				if !changed {
					continue
				}
			}
			if !inWork[s] {
				work = append(work, s)
				inWork[s] = true
			}
		}
	}

	// Rewrite using the fixpoint states.
	changed := false
	for bi, b := range f.Blocks {
		if !reached[bi] {
			continue // unreachable; Cleanup removes it
		}
		e := ins[bi]
		// The fixpoint is done and ins[bi] is read only here, so the
		// rewrite walks it forward in place.
		for i := range b.Instrs {
			in := &b.Instrs[i]
			// Substitute known-constant register operands.
			in.Operands(func(o *ir.Operand) {
				if o.Kind == ir.KindReg {
					if v := e.get(o.Reg); v.isConst() {
						*o = v.op
						changed = true
					}
				}
			})
			// Fold and strength-reduce the instruction itself.
			if foldInstr(in) {
				changed = true
			}
			transfer(in, e)
		}
	}
	return changed
}
