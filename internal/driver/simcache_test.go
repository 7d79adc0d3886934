package driver

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pa8000"
	"repro/internal/specsuite"
)

// simSpin loops input(0) times, so a test controls how long its
// simulation lasts, and prints its checksum.
const simSpin = `
module spin;
extern func input(i int) int;
extern func print(x int) int;

func main() int {
	var i int;
	var s int;
	i = 0;
	s = 0;
	while (i < input(0)) {
		s = s + i * 3;
		i = i + 1;
	}
	print(s);
	return s;
}
`

// simCounters runs c under opts with a fresh recorder and returns the
// outcome plus the cache.sim counters it recorded.
func simCounters(t *testing.T, ctx context.Context, c *Compilation, opts Options, inputs []int64) (st *pa8000.Stats, hit, miss int64, err error) {
	t.Helper()
	rec := obs.New()
	opts.Obs = rec
	st, err = c.RunCtx(ctx, opts, inputs)
	for _, ct := range rec.Counters() {
		switch ct.Name {
		case "cache.sim.hit":
			hit = ct.Value
		case "cache.sim.miss":
			miss = ct.Value
		}
	}
	return st, hit, miss, err
}

func compileSimSpin(t *testing.T) *Compilation {
	t.Helper()
	c, err := Compile([]string{simSpin}, Options{HLO: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSimMemoHitsEqualFreshRuns is the memo's oracle: every hit over
// the specsuite builds, under all four Table 1 scopes, is re-simulated
// with pa8000.RunCtx and must equal it. Each build runs its training
// vector twice, and builds that emit identical machine code (099.go's
// "p" build repeats its base build) hit across compilations.
func TestSimMemoHitsEqualFreshRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the whole suite")
	}
	verified := 0
	simHitHook = func(p *pa8000.Program, cfg pa8000.Config, inputs []int64, st *pa8000.Stats, err error) {
		fresh, ferr := pa8000.RunCtx(context.Background(), p, cfg, inputs)
		if !reflect.DeepEqual(st, fresh) || !reflect.DeepEqual(err, ferr) {
			t.Errorf("memo hit (%+v, %v) differs from a fresh run (%+v, %v)", st, err, fresh, ferr)
		}
		verified++
	}
	defer func() { simHitHook = nil }()

	cache := NewCache()
	builds := 0
	for _, b := range specsuite.All() {
		for _, scope := range []struct{ cross, prof bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
			opts := Options{CrossModule: scope.cross, Profile: scope.prof, TrainInputs: b.Train,
				HLO: core.DefaultOptions(), Cache: cache}
			c, err := Compile(b.Sources, opts)
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			builds++
			first, err := c.Run(opts, b.Train)
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			again, hit, _, err := simCounters(t, context.Background(), c, opts, b.Train)
			if err != nil || hit != 1 {
				t.Fatalf("%s: repeated run: hit %d err %v, want a hit", b.Name, hit, err)
			}
			if !reflect.DeepEqual(first, again) {
				t.Errorf("%s: repeated run %+v differs from the first %+v", b.Name, again, first)
			}
		}
	}
	if verified <= builds {
		t.Errorf("%d hits verified over %d builds; want every repeat plus the cross-build hits", verified, builds)
	}
}

// TestSimMemoOutputIsPrivate: a caller that scribbles on its Stats must
// not change what the next hit returns.
func TestSimMemoOutputIsPrivate(t *testing.T) {
	c := compileSimSpin(t)
	opts := Options{Cache: NewCache()}
	first, err := c.Run(opts, []int64{100})
	if err != nil {
		t.Fatal(err)
	}
	want := *first
	want.Output = append([]int64(nil), first.Output...)
	first.Output[0]++
	first.Cycles = -1
	again, err := c.Run(opts, []int64{100})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*again, want) {
		t.Errorf("hit after a caller's edit = %+v, want %+v", *again, want)
	}
	if &again.Output[0] == &first.Output[0] {
		t.Error("two callers share one Output slice")
	}
}

// TestSimMemoCtxErrorNotCached mirrors the training cache's case: a
// canceled simulation is never latched, so a later run with a live
// context simulates and succeeds.
func TestSimMemoCtxErrorNotCached(t *testing.T) {
	c := compileSimSpin(t)
	opts := Options{Cache: NewCache()}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.RunCtx(ctx, opts, []int64{100}); !errors.Is(err, context.Canceled) {
		t.Fatalf("first run err = %v, want context.Canceled", err)
	}
	st, hit, miss, err := simCounters(t, context.Background(), c, opts, []int64{100})
	if err != nil || hit != 0 || miss != 1 {
		t.Fatalf("run after a canceled one: hit %d miss %d err %v, want a fresh simulation", hit, miss, err)
	}
	if st.ExitCode == 0 {
		t.Error("fresh simulation returned an empty result")
	}
}

// joinSignal is a context that reports when a caller first waits on
// Done: memo.Group's waiters select on it, its fillers never do.
type joinSignal struct {
	context.Context
	once   sync.Once
	joined chan struct{}
}

func (j *joinSignal) Done() <-chan struct{} {
	j.once.Do(func() { close(j.joined) })
	return j.Context.Done()
}

// TestSimMemoWaiterTakesOverCanceledRun: a caller waiting on a
// simulation whose filler is canceled mid-run takes over under its own
// context and gets the full, correct result, not the filler's error.
func TestSimMemoWaiterTakesOverCanceledRun(t *testing.T) {
	c := compileSimSpin(t)
	opts := Options{Cache: NewCache()}
	inputs := []int64{3_000_000}
	want, err := pa8000.RunCtx(context.Background(), c.Machine, opts.Machine, inputs)
	if err != nil {
		t.Fatal(err)
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderRec := obs.New()
	leaderErr := make(chan error, 1)
	go func() {
		lo := opts
		lo.Obs = leaderRec
		_, err := c.RunCtx(leaderCtx, lo, inputs)
		leaderErr <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !simRunning(leaderRec) {
		if time.Now().After(deadline) {
			t.Fatal("the leader never started simulating")
		}
		time.Sleep(time.Millisecond)
	}

	waiterCtx := &joinSignal{Context: context.Background(), joined: make(chan struct{})}
	type outcome struct {
		st        *pa8000.Stats
		err       error
		hit, miss int64
	}
	waiter := make(chan outcome, 1)
	go func() {
		st, hit, miss, err := simCounters(t, waiterCtx, c, opts, inputs)
		waiter <- outcome{st, err, hit, miss}
	}()
	<-waiterCtx.joined
	cancelLeader()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	got := <-waiter
	if got.err != nil || got.miss != 1 || got.hit != 0 {
		t.Fatalf("waiter: hit %d miss %d err %v, want its own simulation", got.hit, got.miss, got.err)
	}
	if !reflect.DeepEqual(got.st, want) {
		t.Errorf("waiter's takeover = %+v, want %+v", got.st, want)
	}
}

// simRunning reports whether rec holds an open simulate/run span.
func simRunning(rec *obs.Recorder) bool {
	for _, sp := range rec.Spans() {
		if sp.Name == "simulate/run" && sp.Open {
			return true
		}
	}
	return false
}

// TestSimMemoEnginesNeverShare: a run under the reference engine never
// reuses a predecoded run's entry (or the reverse), so comparing the
// two engines through a shared cache still simulates on both.
func TestSimMemoEnginesNeverShare(t *testing.T) {
	c := compileSimSpin(t)
	opts := Options{Cache: NewCache()}
	inputs := []int64{500}
	fast, _, miss, err := simCounters(t, context.Background(), c, opts, inputs)
	if err != nil || miss != 1 {
		t.Fatalf("predecoded run: miss %d err %v", miss, err)
	}
	pa8000.SetReferenceEngine(true)
	defer pa8000.SetReferenceEngine(false)
	for i, wantHit := range []int64{0, 1} {
		ref, hit, _, err := simCounters(t, context.Background(), c, opts, inputs)
		if err != nil || hit != wantHit {
			t.Fatalf("reference run %d: hit %d err %v, want hit %d", i, hit, err, wantHit)
		}
		if !reflect.DeepEqual(ref, fast) {
			t.Errorf("reference run %d = %+v, predecoded %+v", i, ref, fast)
		}
	}
}

// TestSimMemoDeterministicErrors: runs that fail the same way every
// time (fuel exhaustion, an invalid address) are memoized like results,
// and a hit returns the same error.
func TestSimMemoDeterministicErrors(t *testing.T) {
	spin := compileSimSpin(t)
	bad := &Compilation{Machine: &pa8000.Program{Code: []pa8000.MInstr{
		{Op: pa8000.MMovI, Rd: 1, Imm: -5},
		{Op: pa8000.MLd, Rd: 2, Rs: 1},
		{Op: pa8000.MHalt},
	}}}
	for _, tc := range []struct {
		name   string
		c      *Compilation
		opts   Options
		inputs []int64
		is     error
	}{
		{"fuel", spin, Options{Machine: pa8000.Config{Fuel: 1000}}, []int64{1_000_000}, pa8000.ErrFuel},
		{"bad address", bad, Options{}, nil, nil},
	} {
		tc.opts.Cache = NewCache()
		_, _, miss, first := simCounters(t, context.Background(), tc.c, tc.opts, tc.inputs)
		_, hit, _, again := simCounters(t, context.Background(), tc.c, tc.opts, tc.inputs)
		if first == nil || miss != 1 || hit != 1 {
			t.Fatalf("%s: first err %v, miss %d then hit %d; want an error memoized", tc.name, first, miss, hit)
		}
		if again == nil || again.Error() != first.Error() {
			t.Errorf("%s: hit err %v, want %v", tc.name, again, first)
		}
		if tc.is != nil && !errors.Is(again, tc.is) {
			t.Errorf("%s: hit err %v is not %v", tc.name, again, tc.is)
		}
	}
}
