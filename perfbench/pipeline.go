package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/pa8000"
	"repro/internal/par"
	"repro/internal/profile"
)

// job is one compile-and-simulate operation: a Table 1 cell or a
// generated program.
type job struct {
	label   string
	set     int // index of the source set in matrix.sets
	cross   bool
	profile bool
	inputs  []int64
	hlo     core.Options
}

// outcome is what one job produced.
type outcome struct {
	cycles int64
	code   int
	output []int64
	exit   int64
	stats  core.Stats
	// latency runs from the start of the pass, when every job of the
	// batch is due, to the job's result.
	latency time.Duration
	digest  [32]byte // traced replay only: the simulation's inputs
}

// matrix is a batch of jobs fanned out over the worker pool: every pass
// of compile-gen and the traced replay of table1. A pass builds
// everything cold, with a fresh front-end and training memo, as each
// hlobench invocation does.
type matrix struct {
	sets   [][]string // source sets
	trains [][]int64  // training inputs per source set
	// warm makes the traced replay train every source set in a phase of
	// its own before the jobs, as the Table 1 generator does.
	warm  bool
	jobs  []job
	order []int // claim order
	// ref is the first pass's outcomes; every later pass, the traced
	// replay included, must reproduce their cycles and code size.
	ref []*outcome
}

func (m *matrix) options(j *job, cache *driver.Cache) driver.Options {
	return driver.Options{
		CrossModule: j.cross,
		Profile:     j.profile,
		TrainInputs: m.trains[j.set],
		HLO:         j.hlo,
		Cache:       cache,
	}
}

// pass runs every job once, through the driver when tr is nil and
// through the traced layer-by-layer replay otherwise.
func (m *matrix) pass(ctx context.Context, tr *tracer) (*passResult, []*outcome, error) {
	outs := make([]*outcome, len(m.jobs))
	res := &passResult{ops: len(m.jobs)}
	start := time.Now()
	var err error
	if tr == nil {
		err = m.plainPass(ctx, start, outs)
	} else {
		err = m.tracedPass(ctx, tr, start, outs, &res.layers)
	}
	res.wall = time.Since(start)
	if err != nil {
		return nil, nil, err
	}
	if tr != nil {
		res.layers.busyBase = workers * res.wall
	}
	for _, o := range outs {
		res.latency = append(res.latency, o.latency)
		res.cycles += o.cycles
		res.codeInstrs += int64(o.code)
	}
	if m.ref == nil {
		m.ref = outs
	} else {
		for i, o := range outs {
			if r := m.ref[i]; o.cycles != r.cycles || o.code != r.code {
				res.failed++
				fmt.Fprintf(os.Stderr, "%s: cycles %d code %d, first untraced pass had %d and %d\n",
					m.jobs[i].label, o.cycles, o.code, r.cycles, r.code)
			}
		}
	}
	return res, outs, nil
}

func (m *matrix) plainPass(ctx context.Context, start time.Time, outs []*outcome) error {
	cache := driver.NewCache()
	return par.DoOrdered(workers, len(m.jobs), m.order, func(i int) error {
		j := &m.jobs[i]
		opts := m.options(j, cache)
		c, err := driver.CompileCtx(ctx, m.sets[j.set], opts)
		if err != nil {
			return fmt.Errorf("%s: %w", j.label, err)
		}
		st, err := c.RunCtx(ctx, opts, j.inputs)
		if err != nil {
			return fmt.Errorf("%s: run: %w", j.label, err)
		}
		outs[i] = &outcome{
			cycles: st.Cycles, code: c.CodeSize, output: st.Output, exit: st.ExitCode,
			stats: c.Stats, latency: time.Since(start),
		}
		return nil
	})
}

func (m *matrix) tracedPass(ctx context.Context, tr *tracer, start time.Time, outs []*outcome, ls *layerStats) error {
	mm := &memo{progs: make([]*ir.Program, len(m.sets)), trains: make([]*profile.Data, len(m.sets))}
	stats := make([]layerStats, len(m.jobs))
	var warm []layerStats
	if m.warm {
		warm = make([]layerStats, len(m.sets))
		err := par.Do(workers, len(m.sets), func(i int) error {
			o := tr.op(fmt.Sprintf("warm/%d", i))
			defer o.finish()
			root := o.begin("cell", -1)
			_, err := mm.train(ctx, m, i, o, root, &warm[i])
			warm[i].busy = o.end(root)
			warm[i].cellMax = warm[i].busy
			return err
		})
		if err != nil {
			return err
		}
	}
	err := par.DoOrdered(workers, len(m.jobs), m.order, func(i int) error {
		o := tr.op(m.jobs[i].label)
		defer o.finish()
		out, err := m.replay(ctx, &m.jobs[i], mm, o, &stats[i])
		if err != nil {
			return err
		}
		out.latency = time.Since(start)
		outs[i] = out
		return nil
	})
	if err != nil {
		return err
	}
	for i := range warm {
		ls.add(&warm[i])
	}
	// The repeat census runs in submission order, so "repeats an
	// earlier run" means the same thing under any schedule.
	seen := map[[32]byte]bool{}
	for i := range stats {
		if seen[outs[i].digest] {
			stats[i].simRepeats = 1
			stats[i].simRepInstr = stats[i].simInstrs
		}
		seen[outs[i].digest] = true
		ls.add(&stats[i])
	}
	return nil
}

// memo is the traced replay's stand-in for driver.Cache: one parse and
// one training run per source set, a fresh copy of the parsed program
// for every use. Table 1 fills the training entries in its warm phase
// and compile-gen never shares a source set between jobs, so no two
// workers ever fill the same entry and a plain mutex suffices.
type memo struct {
	mu     sync.Mutex
	progs  []*ir.Program
	trains []*profile.Data
}

// frontend returns a private copy of the set's program, parsing it on
// first use, inside a "frontend" span.
func (mm *memo) frontend(m *matrix, set int, o *opTrace, parent int, ls *layerStats) (*ir.Program, error) {
	sp := o.begin("frontend", parent)
	mm.mu.Lock()
	p := mm.progs[set]
	mm.mu.Unlock()
	if p != nil {
		c := p.Clone()
		ls.frontend += o.end(sp)
		ls.frontendRepeats++
		return c, nil
	}
	t0 := time.Now()
	p, err := driver.Frontend(m.sets[set])
	ls.parse += time.Since(t0)
	if err != nil {
		o.end(sp)
		return nil, err
	}
	for _, src := range m.sets[set] {
		ls.parseBytes += int64(len(src))
	}
	mm.mu.Lock()
	mm.progs[set] = p
	mm.mu.Unlock()
	c := p.Clone()
	ls.frontend += o.end(sp)
	return c, nil
}

// train returns the set's profile database, running the instrumented
// build on first use, inside a "train" span.
func (mm *memo) train(ctx context.Context, m *matrix, set int, o *opTrace, parent int, ls *layerStats) (*profile.Data, error) {
	sp := o.begin("train", parent)
	defer o.end(sp)
	mm.mu.Lock()
	data := mm.trains[set]
	mm.mu.Unlock()
	if data != nil {
		ls.trainRepeats++
		return data, nil
	}
	p, err := mm.frontend(m, set, o, sp, ls)
	if err != nil {
		return nil, err
	}
	isp := o.begin("interp", sp)
	res, err := interp.RunCtx(ctx, p, interp.Options{Inputs: m.trains[set], Profile: true})
	ls.train += o.end(isp)
	if err != nil {
		return nil, fmt.Errorf("training run: %w", err)
	}
	ls.trainSteps += res.Steps
	mm.mu.Lock()
	mm.trains[set] = res.Profile
	mm.mu.Unlock()
	return res.Profile, nil
}

// replay compiles and simulates one job by calling each layer's public
// function in the order driver.CompileCtx does, with a span around
// each call.
func (m *matrix) replay(ctx context.Context, j *job, mm *memo, o *opTrace, ls *layerStats) (*outcome, error) {
	root := o.begin("cell", -1)
	p, err := mm.frontend(m, j.set, o, root, ls)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", j.label, err)
	}
	if j.profile {
		data, err := mm.train(ctx, m, j.set, o, root, ls)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.label, err)
		}
		sp := o.begin("attach", root)
		data.Attach(p)
		o.end(sp)
	}

	sp := o.begin("hlo", root)
	var st core.Stats
	if j.cross {
		s, err := core.RunCheckedCtx(ctx, p, core.WholeProgram(), j.hlo)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.label, err)
		}
		st = *s
	} else {
		for _, mod := range p.Modules {
			s, err := core.RunCheckedCtx(ctx, p, core.SingleModule(mod.Name), j.hlo)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", j.label, err)
			}
			st.Add(s)
		}
	}
	ls.hlo += o.end(sp)
	ls.hloCost += st.CostAfter
	ls.inlines += int64(st.Inlines)
	ls.clones += int64(st.Clones)
	ls.sizeBefore += int64(st.SizeBefore)
	ls.sizeAfter += int64(st.SizeAfter)

	sp = o.begin("verify", root)
	err = p.Verify()
	o.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: post-HLO verification: %w", j.label, err)
	}

	sp = o.begin("backend", root)
	mp, err := backend.LinkLayout(p, backend.LayoutSourceOrder)
	ls.backend += o.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", j.label, err)
	}
	ls.backendInstrs += int64(len(mp.Code))

	var cfg pa8000.Config
	digest := simDigest(mp, cfg, j.inputs)
	sp = o.begin("simulate", root)
	sim, err := pa8000.RunCtx(ctx, mp, cfg, j.inputs)
	ls.sim += o.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: run: %w", j.label, err)
	}
	ls.simInstrs += sim.Instrs
	ls.simRuns++
	ls.busy = o.end(root)
	ls.cellMax = ls.busy
	return &outcome{
		cycles: sim.Cycles, code: len(mp.Code), output: sim.Output, exit: sim.ExitCode,
		stats: st, digest: digest,
	}, nil
}

// simDigest hashes everything a simulation's result depends on: the
// machine code, the initial data, the entry point, the data size, the
// machine configuration and the inputs. Two runs with equal digests
// retire the same instructions, so a simulation memo would serve the
// second from the first.
func simDigest(p *pa8000.Program, cfg pa8000.Config, inputs []int64) [32]byte {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(len(p.Code)))
	for _, in := range p.Code {
		put(int64(in.Op) | int64(in.Rd)<<8 | int64(in.Rs)<<16 | int64(in.Rt)<<24)
		put(in.Imm)
		put(int64(in.Target))
		put(int64(len(in.Sym)))
		h.Write([]byte(in.Sym))
	}
	put(int64(len(p.InitData)))
	for _, d := range p.InitData {
		put(d.Addr)
		put(int64(len(d.Vals)))
		for _, v := range d.Vals {
			put(v)
		}
	}
	put(int64(p.Entry))
	put(p.DataLen)
	fmt.Fprintf(h, "%+v", cfg)
	put(int64(len(inputs)))
	for _, v := range inputs {
		put(v)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}
