// Command perfbench is the repository's benchmark: it drives the HLO
// reproduction from outside, through each layer's public functions, on
// three workloads and prints every metric by name with its unit.
//
//	perfbench --workload table1|compile-gen|farm --seed N --seconds S --trace 0|1
//
// With --trace 0 a run sets the workload up several times (setup_s is
// the median), then runs untraced passes for S seconds and reports the
// end-to-end metrics. With --trace 1 it alternates untraced and traced
// passes for S seconds and reports the per-layer metrics; spans are
// written to --out when the run ends.
// Every output is checked against an oracle outside the compiler under
// test; the last line of standard output is one JSON object.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/pa8000"
)

// workers is the fan-out of every workload: the pool width of table1
// and compile-gen, the daemon's worker count and the client count of
// farm. It matches the 2-CPU hosts the repository is measured on.
const workers = 2

// A run sets its workload up in at least minSetups fresh processes, its
// own included, and in up to maxSetups while they take less than
// setupBudget in all: cheap set-ups get more samples, so their median
// holds still. setup_s is the median.
const (
	minSetups   = 3
	maxSetups   = 21
	setupBudget = time.Second
)

// minPasses is the least number of passes a timed window runs, so a
// median exists even when one pass outlasts --seconds.
const minPasses = 3

// runLimit bounds one run; a hung layer becomes a failed run instead of
// a stuck benchmark.
const runLimit = 170 * time.Second

// workload is one set of inputs the benchmark runs.
type workload interface {
	// pass runs the workload once. A non-nil tracer turns the pass into
	// a traced replay that records spans around every layer call.
	pass(ctx context.Context, tr *tracer) (*passResult, error)
	// check runs the oracles that are kept out of the timed window and
	// returns how many operations they found wrong.
	check(ctx context.Context) (failed int, err error)
}

// passResult is what one pass measured.
type passResult struct {
	wall    time.Duration
	latency []time.Duration // one per operation
	ops     int             // operations attempted
	failed  int             // errors, non-2xx, wrong outputs
	// cycles and codeInstrs are deterministic for a given seed:
	// simulated cycles of the generated code and emitted machine
	// instructions.
	cycles     int64
	codeInstrs int64
	// peakMem is the most memory the Go runtime held during the pass.
	peakMem uint64
	// setup is what the pass spent before its first timed operation,
	// outside wall: a child process's start, a fresh serving stack.
	setup time.Duration
	// layers holds the per-layer numbers of a traced pass.
	layers layerStats
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "table1, compile-gen or farm")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "length of the timed window")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer replay")
	out := flag.String("out", ".bench_build/perfbench", "directory for spans and farm stores")
	setupOnly := flag.Bool("setup-only", false, "set the workload up, print the time it took and exit")
	table1Child := flag.String("table1-child", "", "run one experiments.Table1 pass (true: with a recorder) and print it")
	flag.Parse()
	if *table1Child != "" {
		if err := runTable1Child(*table1Child == "true"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *setupOnly {
		t0 := time.Now()
		if _, err := newWorkload(*name, *seed, *out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println("setup_s", time.Since(t0).Seconds())
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	res, err := run(ctx, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// newWorkload sets the named workload up from its seed.
func newWorkload(name string, seed int64, out string) (workload, error) {
	pa8000.Prewarm(pa8000.Config{}, workers) // as hlobench and hlod do at startup
	switch name {
	case "table1":
		return newTable1()
	case "compile-gen":
		return newCompileGen(seed)
	case "farm":
		return newFarm(seed, out)
	}
	return nil, fmt.Errorf("unknown workload %q (have table1, compile-gen, farm)", name)
}

func run(ctx context.Context, name string, seed int64, window time.Duration, traced bool, out string) (*result, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	fmt.Println("host:", hostFingerprint())
	var setups []float64
	if !traced {
		var err error
		if setups, err = measureSetup(ctx, name, seed, out); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	w, err := newWorkload(name, seed, out)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	setups = append(setups, time.Since(t0).Seconds())

	res := &result{Metrics: map[string]metric{}}
	if !traced {
		passes, err := timedPasses(ctx, w, nil, window)
		if err != nil {
			return nil, err
		}
		failed, err := w.check(ctx)
		if err != nil {
			return nil, err
		}
		endToEnd(res, passes, median(setups))
		res.Failed += failed
		res.Correct = res.Failed == 0
		printMetrics(res)
		return res, nil
	}

	tr := newTracer()
	plain, tracedPasses, err := interleavedPasses(ctx, w, tr, window)
	if err != nil {
		return nil, err
	}
	failed, err := w.check(ctx)
	if err != nil {
		return nil, err
	}
	for _, p := range append(plain, tracedPasses...) {
		res.Attempted += p.ops
		res.Failed += p.failed
	}
	res.Failed += failed
	perLayer(res, plain, tracedPasses)
	res.Correct = res.Failed == 0
	spanFile := filepath.Join(out, fmt.Sprintf("%s-seed%d.spans.jsonl", name, seed))
	if err := tr.write(spanFile); err != nil {
		return nil, err
	}
	fmt.Println("spans:", spanFile)
	printMetrics(res)
	return res, nil
}

// measureSetup sets the workload up in fresh child processes and
// returns their times; the run's own set-up is the last sample. Every
// sample pays what a cold invocation pays (source generation, simulator
// arenas, pools) and none is served by state an earlier set-up left
// behind.
func measureSetup(ctx context.Context, name string, seed int64, out string) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var samples []float64
	var total float64
	for len(samples) < minSetups-1 || (len(samples) < maxSetups-1 && total < setupBudget.Seconds()) {
		cmd := exec.CommandContext(ctx, exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
			"--out", out, "--setup-only")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		var s float64
		if _, err := fmt.Sscanf(string(stdout), "setup_s %g", &s); err != nil {
			return nil, fmt.Errorf("setup: reading %q: %w", stdout, err)
		}
		samples = append(samples, s)
		total += s
	}
	return samples, nil
}

// timedPasses runs passes until the window has elapsed, and at least
// minPasses of them.
func timedPasses(ctx context.Context, w workload, tr *tracer, window time.Duration) ([]*passResult, error) {
	var passes []*passResult
	start := time.Now()
	for len(passes) < minPasses || time.Since(start) < window {
		p, err := onePass(ctx, w, tr)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	return passes, nil
}

// interleavedPasses alternates untraced and traced passes until the
// window has elapsed, and at least minPasses of each, so that a drift
// in the host's speed weighs on both alike and not on the tracing
// overhead.
func interleavedPasses(ctx context.Context, w workload, tr *tracer, window time.Duration) (plain, traced []*passResult, err error) {
	start := time.Now()
	for len(traced) < minPasses || time.Since(start) < window {
		p, err := onePass(ctx, w, nil)
		if err != nil {
			return nil, nil, err
		}
		q, err := onePass(ctx, w, tr)
		if err != nil {
			return nil, nil, err
		}
		plain, traced = append(plain, p), append(traced, q)
	}
	return plain, traced, nil
}

// onePass runs one pass and records the peak memory it held.
func onePass(ctx context.Context, w workload, tr *tracer) (*passResult, error) {
	stop := make(chan struct{})
	peak := make(chan uint64)
	go samplePeakMem(stop, peak)
	p, err := w.pass(ctx, tr)
	close(stop)
	peakMem := <-peak
	if err != nil {
		return nil, err
	}
	if p.peakMem == 0 { // a pass run in a child process reports its own
		p.peakMem = peakMem
	}
	return p, nil
}

// samplePeakMem polls the memory the Go runtime holds from the
// operating system (mapped minus released, which is nearly all of the
// process's resident set) until stop closes, then sends the peak.
func samplePeakMem(stop <-chan struct{}, peak chan<- uint64) {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	var top uint64
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64() - s[1].Value.Uint64(); v > top {
			top = v
		}
		select {
		case <-stop:
			peak <- top
			return
		case <-tick.C:
		}
	}
}

// endToEnd fills the end-to-end metrics from untraced passes. Every
// workload reports every metric; an operation is a Table 1 cell, a
// generated program or a farm request.
func endToEnd(res *result, passes []*passResult, setup float64) {
	var walls, mem, p50, p99, passSetups, rates []float64
	var samples int
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		passSetups = append(passSetups, p.setup.Seconds())
		mem = append(mem, float64(p.peakMem)/(1<<20))
		p50 = append(p50, ms(quantile(p.latency, 0.50)))
		p99 = append(p99, ms(quantile(p.latency, 0.99)))
		samples += len(p.latency)
		res.Attempted += p.ops
		res.Failed += p.failed
		rates = append(rates, float64(p.ops-p.failed)/p.wall.Seconds())
	}
	last := passes[len(passes)-1]
	for _, p := range passes {
		if p.cycles != last.cycles || p.codeInstrs != last.codeInstrs {
			// Deterministic counters that move between passes of one
			// run mean the program is not deterministic: a failure.
			res.Failed++
		}
	}
	m := res.Metrics
	m["setup_s"] = metric{setup + median(passSetups), "s"}
	m["wall_s"] = metric{median(walls), "s"}
	m["peak_rss_mb"] = metric{median(mem), "MB"}
	m["run_cycles"] = metric{float64(last.cycles), "cycles"}
	m["code_instrs"] = metric{float64(last.codeInstrs), "instrs"}
	// Rates and percentiles are taken per pass and their median
	// reported, so one pass caught in a slow spell of the host does not
	// set them.
	m["req_per_s"] = metric{median(rates), "1/s"}
	m["latency_p50_ms"] = metric{median(p50), "ms"}
	m["latency_p99_ms"] = metric{median(p99), "ms"}
	fmt.Printf("latency samples: %d over %d passes; pass walls:", samples, len(passes))
	for _, w := range walls {
		fmt.Printf(" %.3f", w)
	}
	fmt.Println()
}

func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %16.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
}

// hostFingerprint names the machine a result was taken on.
func hostFingerprint() string {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d cpu=%q go=%s gomaxprocs=%d",
		runtime.NumCPU(), model, runtime.Version(), runtime.GOMAXPROCS(0))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of the samples.
func quantile(v []time.Duration, q float64) time.Duration {
	if len(v) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
