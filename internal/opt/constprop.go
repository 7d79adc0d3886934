// Package opt implements the classic intraprocedural scalar
// optimizations HLO runs at input time and after every inline/clone
// ("optimize(R')" in the paper's Figures 3 and 4): conditional constant
// propagation, branch folding, CFG cleanup, local value numbering and
// copy propagation, and liveness-based dead-code elimination with
// pure-call deletion.
//
// Constant propagation is what turns a clone's bound formals into folded
// branches, and what converts an indirect call through a propagated
// function address into a direct call — the staged optimization the
// paper highlights (clone → propagate code pointer → direct call →
// inline in a later pass).
package opt

import (
	"sync"

	"repro/internal/interp"
	"repro/internal/ir"
)

// latticeVal is a three-level constant lattice value: top (no
// information yet), a known link-time constant operand (integer, global
// address, or function address), or bottom (varying).
type latticeVal struct {
	bot bool
	set bool // false and !bot => top
	op  ir.Operand
}

var bottom = latticeVal{bot: true}

func constVal(op ir.Operand) latticeVal { return latticeVal{set: true, op: op} }

func (v latticeVal) isConst() bool { return v.set && !v.bot }

func meet(a, b latticeVal) latticeVal {
	switch {
	case a.bot || b.bot:
		return bottom
	case !a.set:
		return b
	case !b.set:
		return a
	case a.op.Eq(b.op):
		return a
	default:
		return bottom
	}
}

// env is a lattice environment indexed densely by register (the zero
// latticeVal is top). ConstProp keeps one NumRegs-wide env as the
// scratch that transfer runs over; per-block state holds only the
// registers that flow between blocks (see cpState). Out-of-range
// registers are illegal IR (Verify rejects them), so set may drop such
// writes.
type env []latticeVal

func (e env) get(r ir.Reg) latticeVal {
	if r < 0 || int(r) >= len(e) {
		return latticeVal{}
	}
	return e[r]
}

func (e env) set(r ir.Reg, v latticeVal) {
	if r >= 0 && int(r) < len(e) {
		e[r] = v
	}
}

// cpState is ConstProp's pooled working memory. After inlining most
// registers are block-local temporaries: every block that reads one
// writes it first, so its value never crosses an edge. Only the global
// registers (some block reads them before writing them, the "global
// names" of semi-pruned SSA) get a slot: regs maps slot → register, and
// each block's entry environment is the ng = len(regs) cells
// slab[b*ng:(b+1)*ng]. A visit scatters the block's slots into the
// NumRegs-wide out scratch, runs transfer over it and gathers (or
// meets) the slots back on each edge, so the fixpoint costs ng, not
// NumRegs, per block and per edge. A local register's stale value in
// out is never read: every block writes it before reading it. Pooling
// matters: per-visit environments were once the compiler's largest
// allocation source, and the GC cycles they forced drained the
// simulator's and interpreter's pools.
type cpState struct {
	mark  []int32 // pre-pass: -1 once global, else 1 + the last block to write the register
	regs  []ir.Reg
	uses  []ir.Reg
	slab  []latticeVal
	out   env
	marks []bool // reached[0:nb] ++ inWork[nb:2nb]
	work  []int
}

var cpPool = sync.Pool{New: func() any { return new(cpState) }}

// globals collects into st.regs every register some block reads before
// it writes it, in one pass over the instructions. Reads are
// Instr.Uses; writes are exactly the ones transfer performs.
func (st *cpState) globals(f *ir.Func) {
	nr := int(f.NumRegs)
	if cap(st.mark) < nr {
		st.mark = make([]int32, nr)
	}
	mark := st.mark[:nr]
	clear(mark)
	st.regs = st.regs[:0]
	for bi, b := range f.Blocks {
		stamp := int32(bi + 1)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			st.uses = in.Uses(st.uses[:0])
			for _, r := range st.uses {
				if r >= 0 && int(r) < nr && mark[r] >= 0 && mark[r] != stamp {
					mark[r] = -1
					st.regs = append(st.regs, r)
				}
			}
			if in.HasDst() && in.Dst >= 0 && int(in.Dst) < nr && mark[in.Dst] >= 0 {
				mark[in.Dst] = stamp
			}
		}
	}
}

// ConstProp performs a forward conditional-constant dataflow over f and
// rewrites the function: operands known constant are substituted,
// foldable instructions become moves of constants, branches on constants
// become jumps, and indirect calls through known function addresses
// become direct calls. It reports whether anything changed.
func ConstProp(f *ir.Func) bool {
	st := cpPool.Get().(*cpState)
	defer cpPool.Put(st)
	st.globals(f)
	nb, ng, regs := len(f.Blocks), len(st.regs), st.regs
	if need := nb * ng; cap(st.slab) < need {
		st.slab = make([]latticeVal, need)
	}
	if nr := int(f.NumRegs); cap(st.out) < nr {
		st.out = make(env, nr)
	}
	if cap(st.marks) < 2*nb {
		st.marks = make([]bool, 2*nb)
	}
	ins := func(b int) []latticeVal { return st.slab[b*ng : (b+1)*ng] }
	out := st.out[:f.NumRegs]
	// scatter loads block b's entry slots into out.
	scatter := func(b int) {
		for k, v := range ins(b) {
			out[regs[k]] = v
		}
	}
	// A block's slots are read only after its reached bit is set, and
	// the first touch is a full overwrite (gather below), so stale slab
	// contents never leak between calls; only entry needs clearing.
	reached := st.marks[:nb]
	inWork := st.marks[nb : 2*nb]
	for i := range reached {
		reached[i] = false
		inWork[i] = false
	}
	// Entry: parameters start varying, everything else top.
	entry := ins(0)
	for k, r := range regs {
		entry[k] = latticeVal{}
		if int(r) < f.NumParams {
			entry[k] = bottom
		}
	}
	reached[0] = true

	work := append(st.work[:0], 0)
	defer func() { st.work = work[:0] }()
	inWork[0] = true
	var succs [2]int
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[bi] = false
		b := f.Blocks[bi]
		scatter(bi)
		for i := range b.Instrs {
			transfer(&b.Instrs[i], out)
		}
		// Each ins(s) is uniquely owned, so successor states meet in
		// place instead of clone-merge-compare.
		for _, s := range b.AppendSuccs(succs[:0]) {
			next := ins(s)
			if !reached[s] {
				for k, r := range regs {
					next[k] = out[r]
				}
				reached[s] = true
			} else {
				changed := false
				for k, r := range regs {
					v, o := next[k], out[r]
					// Bottom absorbs and top is the identity: either
					// leaves next unchanged.
					if v.bot || !o.set && !o.bot {
						continue
					}
					if m := meet(v, o); m.bot != v.bot || m.set != v.set || !m.op.Eq(v.op) {
						next[k] = m
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
		scatter(bi)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			// Substitute known-constant register operands.
			in.Operands(func(o *ir.Operand) {
				if o.Kind == ir.KindReg {
					if v := out.get(o.Reg); v.isConst() {
						*o = v.op
						changed = true
					}
				}
			})
			// Fold and strength-reduce the instruction itself.
			if foldInstr(in) {
				changed = true
			}
			transfer(in, out)
		}
	}
	return changed
}

// transfer updates the lattice environment across one instruction.
func transfer(in *ir.Instr, e env) {
	val := func(o ir.Operand) latticeVal {
		switch o.Kind {
		case ir.KindConst, ir.KindGlobalAddr, ir.KindFuncAddr:
			return constVal(o)
		case ir.KindReg:
			return e.get(o.Reg)
		}
		return bottom
	}
	switch in.Op {
	case ir.Mov:
		e.set(in.Dst, val(in.A))
	case ir.Neg, ir.Not:
		a := val(in.A)
		if a.isConst() && a.op.IsConst() {
			v := a.op.Val
			if in.Op == ir.Neg {
				v = -v
			} else if v == 0 {
				v = 1
			} else {
				v = 0
			}
			e.set(in.Dst, constVal(ir.ConstOp(v)))
		} else if a.bot || a.isConst() {
			e.set(in.Dst, bottom)
		} else {
			e.set(in.Dst, latticeVal{})
		}
	case ir.Load, ir.FrameAddr, ir.Alloca, ir.Call, ir.ICall:
		if in.HasDst() {
			e.set(in.Dst, bottom)
		}
	case ir.Store, ir.Ret, ir.Br, ir.Jmp, ir.Nop:
	default:
		if in.Op.IsBinary() {
			a, b := val(in.A), val(in.B)
			switch {
			case a.isConst() && b.isConst() && a.op.IsConst() && b.op.IsConst():
				e.set(in.Dst, constVal(ir.ConstOp(interp.EvalBinary(in.Op, a.op.Val, b.op.Val))))
			case a.bot || b.bot:
				e.set(in.Dst, bottom)
			case a.isConst() && b.isConst():
				// Symbolic constants (addresses): comparisons of identical
				// symbols fold; everything else is varying but link-constant.
				if in.Op.IsCompare() && a.op.Eq(b.op) {
					e.set(in.Dst, constVal(ir.ConstOp(interp.EvalBinary(in.Op, 1, 1))))
				} else {
					e.set(in.Dst, bottom)
				}
			default:
				e.set(in.Dst, latticeVal{})
			}
		}
	}
}

// foldInstr simplifies one instruction in place after operand
// substitution: constant folding, algebraic identities, branch folding,
// and indirect-to-direct call conversion.
func foldInstr(in *ir.Instr) bool {
	switch {
	case in.Op == ir.Br && in.A.IsConst():
		target := in.Else
		if in.A.Val != 0 {
			target = in.Then
		}
		*in = ir.Instr{Op: ir.Jmp, Then: target, Pos: in.Pos}
		return true
	case in.Op == ir.Br && in.Then == in.Else:
		*in = ir.Instr{Op: ir.Jmp, Then: in.Then, Pos: in.Pos}
		return true
	case in.Op == ir.ICall && in.A.Kind == ir.KindFuncAddr:
		// The paper's staged optimization: a propagated code pointer
		// turns an indirect call into a direct call, which later passes
		// can inline or clone.
		*in = ir.Instr{Op: ir.Call, Dst: in.Dst, Callee: in.A.Sym, Args: in.Args, Pos: in.Pos}
		return true
	case in.Op == ir.Neg && in.A.IsConst():
		*in = ir.Instr{Op: ir.Mov, Dst: in.Dst, A: ir.ConstOp(-in.A.Val), Pos: in.Pos}
		return true
	case in.Op == ir.Not && in.A.IsConst():
		v := int64(0)
		if in.A.Val == 0 {
			v = 1
		}
		*in = ir.Instr{Op: ir.Mov, Dst: in.Dst, A: ir.ConstOp(v), Pos: in.Pos}
		return true
	}
	if !in.Op.IsBinary() {
		return false
	}
	if in.A.IsConst() && in.B.IsConst() {
		v := interp.EvalBinary(in.Op, in.A.Val, in.B.Val)
		*in = ir.Instr{Op: ir.Mov, Dst: in.Dst, A: ir.ConstOp(v), Pos: in.Pos}
		return true
	}
	// Algebraic identities that preserve the flat-memory semantics.
	mov := func(a ir.Operand) {
		*in = ir.Instr{Op: ir.Mov, Dst: in.Dst, A: a, Pos: in.Pos}
	}
	switch in.Op {
	case ir.Add:
		if in.A.IsConst() && in.A.Val == 0 {
			mov(in.B)
			return true
		}
		if in.B.IsConst() && in.B.Val == 0 {
			mov(in.A)
			return true
		}
	case ir.Sub:
		if in.B.IsConst() && in.B.Val == 0 {
			mov(in.A)
			return true
		}
		if in.A.Eq(in.B) && in.A.IsReg() {
			mov(ir.ConstOp(0))
			return true
		}
	case ir.Mul:
		if in.A.IsConst() && in.A.Val == 1 {
			mov(in.B)
			return true
		}
		if in.B.IsConst() && in.B.Val == 1 {
			mov(in.A)
			return true
		}
		if in.A.IsConst() && in.A.Val == 0 || in.B.IsConst() && in.B.Val == 0 {
			mov(ir.ConstOp(0))
			return true
		}
	case ir.Or, ir.Xor, ir.Shl, ir.Shr:
		if in.B.IsConst() && in.B.Val == 0 && in.Op != ir.Or {
			mov(in.A)
			return true
		}
		if in.Op == ir.Or && in.B.IsConst() && in.B.Val == 0 {
			mov(in.A)
			return true
		}
	}
	return false
}
