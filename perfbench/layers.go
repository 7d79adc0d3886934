package main

import (
	"fmt"
	"time"
)

// layerStats accumulates one traced pass's per-layer numbers: busy time
// from the spans around each layer call, work counts from what those
// calls return.
type layerStats struct {
	frontend, parse         time.Duration
	parseBytes              int64
	frontendRepeats         int64
	train                   time.Duration // interp.Run of the instrumented build
	trainSteps              int64
	trainRepeats            int64
	hlo                     time.Duration
	hloCost                 int64 // Σ size² after HLO, the paper's compile-cost model
	inlines, clones         int64
	sizeBefore, sizeAfter   int64
	backend                 time.Duration
	backendInstrs           int64
	sim                     time.Duration
	simInstrs, simRuns      int64
	simRepeats, simRepInstr int64
	cellMax, busy           time.Duration
	busyBase                time.Duration // workers x the wall the cells ran in

	// farm
	hop, hit, fill       []time.Duration
	serveHits, serveMiss int64
	rejected429          int64
	inflight             int64 // requests served by a fill already in flight
	cas                  map[string]int64
}

// add folds another operation's or pass's numbers into s.
func (s *layerStats) add(o *layerStats) {
	s.frontend += o.frontend
	s.parse += o.parse
	s.parseBytes += o.parseBytes
	s.frontendRepeats += o.frontendRepeats
	s.train += o.train
	s.trainSteps += o.trainSteps
	s.trainRepeats += o.trainRepeats
	s.hlo += o.hlo
	s.hloCost += o.hloCost
	s.inlines += o.inlines
	s.clones += o.clones
	s.sizeBefore += o.sizeBefore
	s.sizeAfter += o.sizeAfter
	s.backend += o.backend
	s.backendInstrs += o.backendInstrs
	s.sim += o.sim
	s.simInstrs += o.simInstrs
	s.simRuns += o.simRuns
	s.simRepeats += o.simRepeats
	s.simRepInstr += o.simRepInstr
	s.busy += o.busy
	s.busyBase += o.busyBase
	if o.cellMax > s.cellMax {
		s.cellMax = o.cellMax
	}
	s.hop = append(s.hop, o.hop...)
	s.hit = append(s.hit, o.hit...)
	s.fill = append(s.fill, o.fill...)
	s.serveHits += o.serveHits
	s.serveMiss += o.serveMiss
	s.rejected429 += o.rejected429
	s.inflight += o.inflight
	for k, v := range o.cas {
		if s.cas == nil {
			s.cas = map[string]int64{}
		}
		s.cas[k] += v
	}
}

// perLayerMetrics lists the per-layer metrics in BENCHMARK.json order.
// Every traced run reports all of them; one the workload does not reach
// reads 0: serve and cas on table1 and compile-gen, and the cells of
// experiments and par on farm.
var perLayerMetrics = []struct{ name, unit string }{
	{"sim.s", "s"},
	{"sim.ns_per_instr", "ns"},
	{"sim.instrs", "count"},
	{"sim.runs", "count"},
	{"sim.repeat_runs", "count"},
	{"sim.repeat_instr_share", "ratio"},
	{"train.s", "s"},
	{"train.ns_per_step", "ns"},
	{"train.repeat_calls", "count"},
	{"frontend.s", "s"},
	{"frontend.ns_per_byte", "ns"},
	{"frontend.repeat_calls", "count"},
	{"hlo.s", "s"},
	{"hlo.ns_per_cost_unit", "ns"},
	{"hlo.inlines", "count"},
	{"hlo.clones", "count"},
	{"hlo.size_ratio", "ratio"},
	{"backend.s", "s"},
	{"backend.ns_per_instr", "ns"},
	{"cells.max_s", "s"},
	{"par.busy_ratio", "ratio"},
	{"gateway.hop_ms_p50", "ms"},
	{"daemon.hit_ms_p50", "ms"},
	{"daemon.fill_ms_p50", "ms"},
	{"daemon.fill_ms_p99", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.rejected_429", "count"},
	{"serve.inflight_repeats", "count"},
	{"cas.hits", "count"},
	{"cas.misses", "count"},
	{"cas.puts", "count"},
	{"cas.write_errors", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"fail_ratio", "ratio"},
}

// perLayer fills the per-layer metrics. Times and counts are per pass,
// averaged over the traced passes; ratios are taken over their sums.
// The tracing overhead compares median pass walls of the traced and the
// untraced passes of the same run.
func perLayer(res *result, plain, traced []*passResult) {
	var s layerStats
	var plainWalls, tracedWalls, cellMax []float64
	for _, p := range plain {
		plainWalls = append(plainWalls, p.wall.Seconds())
	}
	for _, p := range traced {
		s.add(&p.layers)
		tracedWalls = append(tracedWalls, p.wall.Seconds())
		cellMax = append(cellMax, p.layers.cellMax.Seconds())
	}
	n := float64(len(traced))
	per := func(v int64) float64 { return float64(v) / n }
	secs := func(d time.Duration) float64 { return d.Seconds() / n }
	v := map[string]float64{
		"sim.s":                  secs(s.sim),
		"sim.ns_per_instr":       ratio(float64(s.sim), float64(s.simInstrs)),
		"sim.instrs":             per(s.simInstrs),
		"sim.runs":               per(s.simRuns),
		"sim.repeat_runs":        per(s.simRepeats),
		"sim.repeat_instr_share": ratio(float64(s.simRepInstr), float64(s.simInstrs)),
		"train.s":                secs(s.train),
		"train.ns_per_step":      ratio(float64(s.train), float64(s.trainSteps)),
		"train.repeat_calls":     per(s.trainRepeats),
		"frontend.s":             secs(s.frontend),
		"frontend.ns_per_byte":   ratio(float64(s.parse), float64(s.parseBytes)),
		"frontend.repeat_calls":  per(s.frontendRepeats),
		"hlo.s":                  secs(s.hlo),
		"hlo.ns_per_cost_unit":   ratio(float64(s.hlo), float64(s.hloCost)),
		"hlo.inlines":            per(s.inlines),
		"hlo.clones":             per(s.clones),
		"hlo.size_ratio":         ratio(float64(s.sizeAfter), float64(s.sizeBefore)),
		"backend.s":              secs(s.backend),
		"backend.ns_per_instr":   ratio(float64(s.backend), float64(s.backendInstrs)),
		"cells.max_s":            median(cellMax),
		"par.busy_ratio":         ratio(float64(s.busy), float64(s.busyBase)),
		"gateway.hop_ms_p50":     ms(quantile(s.hop, 0.50)),
		"daemon.hit_ms_p50":      ms(quantile(s.hit, 0.50)),
		"daemon.fill_ms_p50":     ms(quantile(s.fill, 0.50)),
		"daemon.fill_ms_p99":     ms(quantile(s.fill, 0.99)),
		"serve.hit_ratio":        ratio(float64(s.serveHits), float64(s.serveHits+s.serveMiss)),
		"serve.rejected_429":     per(s.rejected429),
		"serve.inflight_repeats": per(s.inflight),
		"cas.hits":               per(s.cas["hits"]),
		"cas.misses":             per(s.cas["misses"]),
		"cas.puts":               per(s.cas["puts"]),
		"cas.write_errors":       per(s.cas["write_errors"]),
		"trace.overhead_ratio":   median(tracedWalls)/median(plainWalls) - 1,
		"fail_ratio":             ratio(float64(res.Failed), float64(res.Attempted)),
	}
	for _, m := range perLayerMetrics {
		res.Metrics[m.name] = metric{v[m.name], m.unit}
	}
	if len(s.fill) > 0 {
		fmt.Printf("daemon samples: hit=%d fill=%d hop=%d over %d traced passes\n", len(s.hit), len(s.fill), len(s.hop), len(traced))
	}
}

// ratio is a/b, 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
