package pa8000

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
)

// Config sets the machine parameters. Zero fields take defaults chosen
// so the synthetic benchmarks sit near the same cache boundaries the
// SPEC programs sat near on the real machine.
type Config struct {
	ICacheBytes int // default 8 KiB (the PA8000 had a large off-chip I-cache)
	ICacheLine  int // default 32 B
	ICacheAssoc int // default 2
	DCacheBytes int // default 4 KiB
	DCacheLine  int // default 32 B
	DCacheAssoc int // default 2

	MissPenalty       int64 // default 20 cycles
	MispredictPenalty int64 // default 5 cycles
	BHTEntries        int   // default 256
	IssueWidth        int   // default 2 (in-order)

	MemWords int64 // default 1<<22
	Fuel     int64 // instruction budget; default 2e9
}

func (c Config) withDefaults() Config {
	def := func(p *int, v int) {
		if *p == 0 {
			*p = v
		}
	}
	def64 := func(p *int64, v int64) {
		if *p == 0 {
			*p = v
		}
	}
	def(&c.ICacheBytes, 8192)
	def(&c.ICacheLine, 32)
	def(&c.ICacheAssoc, 2)
	def(&c.DCacheBytes, 4096)
	def(&c.DCacheLine, 32)
	def(&c.DCacheAssoc, 2)
	def64(&c.MissPenalty, 20)
	def64(&c.MispredictPenalty, 5)
	def(&c.BHTEntries, 256)
	def(&c.IssueWidth, 2)
	def64(&c.MemWords, 1<<22)
	def64(&c.Fuel, 2_000_000_000)
	return c
}

// Stats is the simulator's report: the raw counters behind Figure 7.
type Stats struct {
	Cycles int64
	Instrs int64 // instructions retired

	IAccesses int64
	IMisses   int64
	DAccesses int64
	DMisses   int64

	Branches    int64 // all control-transfer instructions
	Predicted   int64 // prediction-capable branch executions
	Mispredicts int64
	Calls       int64
	Returns     int64

	Output   []int64
	ExitCode int64
}

// CPI returns cycles per retired instruction.
func (s *Stats) CPI() float64 {
	if s.Instrs == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instrs)
}

// IMissRate returns I-cache misses per access.
func (s *Stats) IMissRate() float64 {
	if s.IAccesses == 0 {
		return 0
	}
	return float64(s.IMisses) / float64(s.IAccesses)
}

// DMissRate returns D-cache misses per access.
func (s *Stats) DMissRate() float64 {
	if s.DAccesses == 0 {
		return 0
	}
	return float64(s.DMisses) / float64(s.DAccesses)
}

// BranchMissRate returns mispredicts per prediction-capable branch.
func (s *Stats) BranchMissRate() float64 {
	if s.Predicted == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Predicted)
}

// ErrFuel is returned when the cycle budget is exhausted.
var ErrFuel = errors.New("pa8000: fuel exhausted")

// ctxStride is how many retired instructions pass between context
// checks in RunCtx: frequent enough that cancellation latency is
// microseconds, rare enough that the per-instruction cost is one AND
// and one predictable branch.
const ctxStride = 8192

// referenceEngine, when set, routes every RunCtx through the retired
// closure-based loop in ref.go instead of the predecoded engine. It
// exists for differential testing (hlofuzz's equivalence oracle, the
// CI byte-diff of Table 1) and A/B benchmarking, never for production.
var referenceEngine atomic.Bool

// SetReferenceEngine selects which engine RunCtx uses: true for the
// reference (slow, allocating) loop, false (the default) for the
// predecoded pooled engine. The two are bit-equivalent by contract.
func SetReferenceEngine(on bool) { referenceEngine.Store(on) }

// Run executes a linked program with the given inputs.
func Run(p *Program, cfg Config, inputs []int64) (*Stats, error) {
	return RunCtx(context.Background(), p, cfg, inputs)
}

// RunCtx is Run with cancellation: the simulation checks ctx at
// instruction-budget boundaries (every ctxStride retired instructions)
// and returns ctx.Err() — wrapped, so errors.Is sees context.Canceled
// or context.DeadlineExceeded — when the context dies mid-run.
func RunCtx(ctx context.Context, p *Program, cfg Config, inputs []int64) (*Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Fail fast on a dead context: a short simulation could otherwise
	// finish between stride checks and mask the cancellation.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pa8000: canceled before start: %w", err)
	}
	if referenceEngine.Load() {
		return runReference(ctx, p, cfg, inputs)
	}
	return runEngine(ctx, p, cfg, inputs)
}

// RunDigest hashes everything RunCtx's result depends on: every field
// of every instruction, the initial data, the entry point, the data
// size, the configuration with its defaults applied, the selected
// engine and the inputs. Two calls with equal digests return equal
// Stats, or equal errors, unless the context ends first: RunCtx is a
// pure function of these. The symbol maps (FuncAddr, GlobalAddr,
// FuncOfAddr) are diagnostics the engines never read and are left out.
// A change to what RunCtx reads must extend this digest in the same
// change.
func RunDigest(p *Program, cfg Config, inputs []int64) [32]byte {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	// Config is a flat struct of integers, so its %+v form names every
	// field, present and future, unambiguously.
	fmt.Fprintf(h, "reference=%t %+v\n", referenceEngine.Load(), cfg.withDefaults())
	put(int64(len(p.Code)))
	for i := range p.Code {
		in := &p.Code[i]
		put(int64(in.Op) | int64(in.Rd)<<16 | int64(in.Rs)<<24 | int64(in.Rt)<<32)
		put(in.Imm)
		put(int64(in.Target))
		put(int64(len(in.Sym)))
		h.Write([]byte(in.Sym))
	}
	put(int64(len(p.InitData)))
	for _, di := range p.InitData {
		put(di.Addr)
		put(int64(len(di.Vals)))
		for _, v := range di.Vals {
			put(v)
		}
	}
	put(int64(p.Entry))
	put(p.DataLen)
	put(int64(len(inputs)))
	for _, v := range inputs {
		put(v)
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// depInfo extracts the registers read and written for the pairing check.
func depInfo(in *MInstr) (reads [2]Reg, writes Reg, isMem bool) {
	reads = [2]Reg{0xff, 0xff}
	writes = 0xff
	switch in.Op {
	case MNop, MMovI, MJmp:
		if in.Op == MMovI {
			writes = in.Rd
		}
	case MMov, MNeg, MNot, MAddI:
		reads[0] = in.Rs
		writes = in.Rd
	case MLd:
		reads[0] = in.Rs
		writes = in.Rd
		isMem = true
	case MSt:
		reads[0] = in.Rs
		reads[1] = in.Rt
		isMem = true
	case MBz, MBnz, MCallR:
		reads[0] = in.Rs
	case MCall, MRet, MSys, MHalt:
	default:
		reads[0] = in.Rs
		reads[1] = in.Rt
		writes = in.Rd
	}
	return
}

func alu(op MOp, x, y int64) (int64, error) {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case MAdd:
		return x + y, nil
	case MSub:
		return x - y, nil
	case MMul:
		return x * y, nil
	case MDiv:
		if y == 0 {
			return 0, nil
		}
		return x / y, nil
	case MRem:
		if y == 0 {
			return x, nil
		}
		return x % y, nil
	case MAnd:
		return x & y, nil
	case MOr:
		return x | y, nil
	case MXor:
		return x ^ y, nil
	case MShl:
		return x << (uint64(y) & 63), nil
	case MShr:
		return x >> (uint64(y) & 63), nil
	case MCmpEQ:
		return b2i(x == y), nil
	case MCmpNE:
		return b2i(x != y), nil
	case MCmpLT:
		return b2i(x < y), nil
	case MCmpLE:
		return b2i(x <= y), nil
	case MCmpGT:
		return b2i(x > y), nil
	case MCmpGE:
		return b2i(x >= y), nil
	}
	return 0, fmt.Errorf("pa8000: unknown op %s", op)
}
