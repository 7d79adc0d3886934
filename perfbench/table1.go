package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/pa8000"
	"repro/internal/par"
	"repro/internal/specsuite"
)

// goldenPath holds the reference figures; its Table 1 section is the
// table1 oracle. The benchmark runs from the repository root.
const goldenPath = "testdata/policy-golden/figures.txt"

// table1Scopes are the paper's four scope configurations, in the row
// order of experiments.Table1.
var table1Scopes = []struct {
	name        string
	cross, prof bool
}{
	{"", false, false},
	{"c", true, false},
	{"p", false, true},
	{"cp", true, true},
}

// table1 is the paper's Table 1: 7 benchmarks x 4 scopes, the
// 124.m88ksim deck split into its vectors, 48 simulations per pass.
// Every untraced pass is one call of experiments.Table1 with 2 workers
// in a fresh child process, so it pays what each `hlobench -table1 -j 2`
// invocation pays: cold front-end and training caches, an empty cell
// cost memory (the scheduler's claim order starts from its seed
// weights), freshly pinned simulator arenas. Simulation dominates it,
// and many of its simulations repeat an earlier one exactly. The
// matrix is fixed by the paper, so the seed does not change it.
//
// A traced pass runs experiments.Table1 in a child with an obs recorder
// attached, which yields the cell spans of the experiments and par
// layers, and then the layer-by-layer replay of the same 48 cells.
type table1 struct {
	matrix  // the traced replay's cells
	benches []*specsuite.Benchmark
	golden  []string
	exe     string
	// rows is the first untraced pass's table: the traced replay must
	// reproduce its cycles and transformation statistics.
	rows []experiments.Table1Row
	// sizes is the emitted code size of every (benchmark, scope) build,
	// in row order; nil until first needed.
	sizes []int
}

func newTable1() (*table1, error) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	golden, err := table1Section(string(data))
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := &table1{golden: golden, exe: exe}
	for _, name := range specsuite.Table1Names() {
		b, err := specsuite.ByName(name)
		if err != nil {
			return nil, err
		}
		t.benches = append(t.benches, b)
		t.sets = append(t.sets, b.Sources)
		t.trains = append(t.trains, b.Train)
	}
	t.warm = true
	for bi, b := range t.benches {
		vecs := b.RefVectors()
		for _, sc := range table1Scopes {
			for vi, vec := range vecs {
				scope := sc.name
				if scope == "" {
					scope = "base"
				}
				label := "table1/" + b.Name + "/" + scope
				if len(vecs) > 1 {
					label += fmt.Sprintf("/v%d", vi)
				}
				t.order = append(t.order, len(t.jobs))
				t.jobs = append(t.jobs, job{
					label: label, set: bi, cross: sc.cross, profile: sc.prof,
					inputs: vec, hlo: core.DefaultOptions(),
				})
			}
		}
	}
	return t, nil
}

// table1Section cuts the Table 1 block, per-scope totals included, out
// of the reference figures.
func table1Section(figures string) ([]string, error) {
	lines := strings.Split(figures, "\n")
	for i, l := range lines {
		if !strings.HasPrefix(l, "Table 1:") {
			continue
		}
		end := i
		for end < len(lines) && lines[end] != "" && !strings.HasPrefix(lines[end], "Figure") {
			end++
		}
		return lines[i:end], nil
	}
	return nil, fmt.Errorf("%s: no Table 1 section", goldenPath)
}

// table1Run is what a child process reports for one experiments.Table1
// call.
type table1Run struct {
	Begin int64                   `json:"begin_unix_ns"` // when the Table1 call began
	Wall  time.Duration           `json:"wall_ns"`
	Peak  uint64                  `json:"peak_bytes"`
	Rows  []experiments.Table1Row `json:"rows"`
	Cells []time.Duration         `json:"cells_ns,omitempty"` // with a recorder: every cell span
}

// runTable1Child is the child side of a table1 pass: it sets the
// process up as hlobench does, times one experiments.Table1 call and
// prints a table1Run. With record set, an obs recorder is attached, as
// hlobench -trace does, and the cell spans are reported.
func runTable1Child(record bool) error {
	experiments.SetParallelism(workers)
	pa8000.Prewarm(pa8000.Config{}, workers)
	experiments.ResetCache()
	var rec *obs.Recorder
	if record {
		rec = obs.New()
		experiments.SetRecorder(rec)
	}
	stop := make(chan struct{})
	peak := make(chan uint64)
	go samplePeakMem(stop, peak)
	t0 := time.Now()
	rows, err := experiments.Table1()
	wall := time.Since(t0)
	close(stop)
	r := table1Run{Begin: t0.UnixNano(), Wall: wall, Peak: <-peak, Rows: rows}
	if err != nil {
		return err
	}
	for _, sp := range rec.Spans() {
		if sp.Depth == 0 && strings.HasPrefix(sp.Name, "cell/") {
			r.Cells = append(r.Cells, sp.Dur)
		}
	}
	return json.NewEncoder(os.Stdout).Encode(&r)
}

// child runs one experiments.Table1 call in a fresh process and also
// returns the child's set-up: the time from its start to the call.
func (t *table1) child(ctx context.Context, record bool) (*table1Run, time.Duration, error) {
	cmd := exec.CommandContext(ctx, t.exe, "--table1-child", fmt.Sprint(record))
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("table1 child: %w", err)
	}
	var r table1Run
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, 0, fmt.Errorf("table1 child: %w", err)
	}
	return &r, time.Duration(r.Begin - t0.UnixNano()), nil
}

func (t *table1) pass(ctx context.Context, tr *tracer) (*passResult, error) {
	record := tr != nil
	r, setup, err := t.child(ctx, record)
	if err != nil {
		return nil, err
	}
	sizes, err := t.buildSizes(ctx)
	if err != nil {
		return nil, err
	}
	// Table1 hands every cell back at once, when the table is done.
	res := &passResult{wall: r.Wall, ops: len(t.jobs), peakMem: r.Peak, setup: setup}
	for range t.jobs {
		res.latency = append(res.latency, r.Wall)
	}
	for _, row := range r.Rows {
		res.cycles += row.RunCycles
	}
	for _, s := range sizes {
		res.codeInstrs += int64(s)
	}
	res.failed = t.checkRows(r.Rows)
	if !record {
		if t.rows == nil {
			t.rows = r.Rows
		}
		return res, nil
	}

	// The traced pass: experiments and par from the recorded run, every
	// other layer from the replay, which must build and simulate what
	// the untraced pass did.
	for _, d := range r.Cells {
		res.layers.busy += d
		res.layers.cellMax = max(res.layers.cellMax, d)
	}
	res.layers.busyBase = workers * r.Wall
	replay, outs, err := t.matrix.pass(ctx, tr)
	if err != nil {
		return nil, err
	}
	res.failed += replay.failed + t.checkReplay(outs, sizes)
	busy, cellMax, base := res.layers.busy, res.layers.cellMax, res.layers.busyBase
	res.layers = replay.layers
	res.layers.busy, res.layers.cellMax, res.layers.busyBase = busy, cellMax, base
	return res, nil
}

// checkRows renders a pass's Table 1 and counts the cells of every row
// that differs from the reference.
func (t *table1) checkRows(rows []experiments.Table1Row) int {
	got := strings.Split(experiments.RenderTable1(rows)+experiments.RenderTable1Totals(rows), "\n")
	got = got[:len(got)-1] // trailing newline
	if len(got) != len(t.golden) {
		fmt.Fprintf(os.Stderr, "table1: %d lines, reference has %d\n", len(got), len(t.golden))
		return len(t.jobs)
	}
	const header = 3 // title, scope legend, column names
	nc := len(table1Scopes)
	failed := 0
	for k := range got {
		if got[k] == t.golden[k] {
			continue
		}
		fmt.Fprintf(os.Stderr, "table1: got  %q\n        want %q\n", got[k], t.golden[k])
		if r := k - header; r >= 0 && r < len(t.benches)*nc {
			failed += len(t.benches[r/nc].RefVectors())
		} else {
			failed++
		}
	}
	return min(failed, len(t.jobs)) // a wrong cell also breaks its scope's total
}

// checkReplay holds the replay to the first untraced pass: every row's
// summed cycles and transformation statistics, and every build's code
// size, must be equal. It returns the number of cells that differ.
func (t *table1) checkReplay(outs []*outcome, sizes []int) int {
	failed := 0
	i := 0
	for bi, b := range t.benches {
		for ci := range table1Scopes {
			row := bi*len(table1Scopes) + ci
			nv := len(b.RefVectors())
			first := outs[i]
			var cycles int64
			for _, o := range outs[i : i+nv] {
				cycles += o.cycles
			}
			want := &t.rows[row]
			if cycles != want.RunCycles || first.stats != want.Stats || first.code != sizes[row] {
				failed += nv
				fmt.Fprintf(os.Stderr, "%s: replay has cycles %d code %d, untraced pass had %d and %d\n",
					t.jobs[i].label, cycles, first.code, want.RunCycles, sizes[row])
			}
			i += nv
		}
	}
	return failed
}

// buildSizes compiles every (benchmark, scope) build of the table once
// through driver.CompileCtx, as experiments.Table1 does, and returns
// the emitted code sizes in row order. Table1 returns no code sizes, so
// code_instrs comes from here; the compiles run once per process,
// outside every timed pass.
func (t *table1) buildSizes(ctx context.Context) ([]int, error) {
	if t.sizes != nil {
		return t.sizes, nil
	}
	nc := len(table1Scopes)
	sizes := make([]int, len(t.benches)*nc)
	cache := driver.NewCache()
	err := par.Do(workers, len(sizes), func(i int) error {
		b, sc := t.benches[i/nc], table1Scopes[i%nc]
		c, err := driver.CompileCtx(ctx, b.Sources, driver.Options{
			CrossModule: sc.cross, Profile: sc.prof, TrainInputs: b.Train,
			HLO: core.DefaultOptions(), Cache: cache,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		sizes[i] = c.CodeSize
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.sizes = sizes
	return sizes, nil
}

func (t *table1) check(context.Context) (int, error) { return 0, nil }
