package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// PhaseStat is the aggregate of every span sharing one name: the
// "where does the time go" row. Wall is cumulative (includes time spent
// in child spans); Self is Wall minus the wall time of direct children,
// i.e. the time this phase spent doing its own work. CPU and the
// allocation counters are cumulative too (a phase's children rarely
// share its name, so in practice they read as per-phase). CPU sums
// only the spans whose CPU is known (Span.CPUUnknown), so it is a lower
// bound when a phase's goroutine changed OS threads mid-span.
type PhaseStat struct {
	Name       string        `json:"name"`
	Count      int           `json:"count"`
	Wall       time.Duration `json:"wall_ns"`
	Self       time.Duration `json:"self_ns"`
	CPU        time.Duration `json:"cpu_ns"`
	AllocBytes int64         `json:"alloc_bytes"`
	Allocs     int64         `json:"allocs"`
}

// PhaseCount is the wall-clock-free projection of a PhaseStat, used by
// determinism tests: two runs of the same workload must produce the
// same phases the same number of times, whatever the worker count.
type PhaseCount struct {
	Name  string
	Count int
}

// Attribution is the hierarchical self-vs-cumulative breakdown of a
// span stream.
//
// Total is the summed wall time of the root spans — the whole recorded
// wall clock (per task: under a parallel fan-out, Total is the sum of
// per-cell times, not the elapsed wall of the run). RootSelf is the
// self time of wrapper roots — roots with children — that no child
// span accounts for; a childless root is itself the finest-grained
// phase recorded, so all of its time counts as attributed. Coverage
// reports the attributed fraction, 1 - RootSelf/Total. A flight record
// whose root spans are cell or request wrappers therefore reads as
// "Coverage of the wall time is attributed to named phases", and one
// whose roots are the phases themselves (a bare hlocc compile) scores
// near 1 instead of charging every root as a gap.
type Attribution struct {
	Total    time.Duration
	RootSelf time.Duration
	Phases   []PhaseStat // sorted by Self descending, ties by name
}

// Aggregate folds a span stream into per-phase statistics. The tree is
// reconstructed from Begin order and Depth (a span's parent is the
// nearest preceding span with a smaller depth), which holds for any
// single recorder and for recorders merged in submission order. Open
// spans are skipped — they have no duration yet.
func Aggregate(spans []Span) *Attribution {
	a := &Attribution{}
	byName := make(map[string]*PhaseStat)
	// childDur[i] accumulates the wall time of span i's direct children.
	childDur := make([]time.Duration, len(spans))
	hasChild := make([]bool, len(spans))
	type frame struct{ idx, depth int }
	var stack []frame
	for i := range spans {
		sp := &spans[i]
		if sp.Open {
			continue
		}
		for len(stack) > 0 && stack[len(stack)-1].depth >= sp.Depth {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			childDur[stack[len(stack)-1].idx] += sp.Dur
			hasChild[stack[len(stack)-1].idx] = true
		} else {
			a.Total += sp.Dur
		}
		stack = append(stack, frame{i, sp.Depth})

		st, ok := byName[sp.Name]
		if !ok {
			st = &PhaseStat{Name: sp.Name}
			byName[sp.Name] = st
		}
		st.Count++
		st.Wall += sp.Dur
		st.CPU += sp.CPU
		st.AllocBytes += sp.AllocBytes
		st.Allocs += sp.Allocs
	}
	// Second walk: self time needs the (now complete) childDur sums.
	stack = stack[:0]
	for i := range spans {
		sp := &spans[i]
		if sp.Open {
			continue
		}
		for len(stack) > 0 && stack[len(stack)-1].depth >= sp.Depth {
			stack = stack[:len(stack)-1]
		}
		self := sp.Dur - childDur[i]
		if self < 0 {
			self = 0 // concurrent children on a shared recorder can overlap
		}
		byName[sp.Name].Self += self
		if len(stack) == 0 && hasChild[i] {
			a.RootSelf += self
		}
		stack = append(stack, frame{i, sp.Depth})
	}
	a.Phases = make([]PhaseStat, 0, len(byName))
	for _, st := range byName {
		a.Phases = append(a.Phases, *st)
	}
	sort.Slice(a.Phases, func(i, j int) bool {
		if a.Phases[i].Self != a.Phases[j].Self {
			return a.Phases[i].Self > a.Phases[j].Self
		}
		return a.Phases[i].Name < a.Phases[j].Name
	})
	return a
}

// Coverage is the fraction of Total attributed to named phases:
// 1 - RootSelf/Total. A span stream whose roots are thin wrappers
// (cell/..., request/...) scores near 1; uninstrumented gaps inside
// such wrappers lower it. Childless roots are phases in their own
// right and never count as gaps. Returns 1 for an empty stream.
func (a *Attribution) Coverage() float64 {
	if a.Total <= 0 {
		return 1
	}
	return 1 - float64(a.RootSelf)/float64(a.Total)
}

// Stable projects the attribution onto its wall-clock-free part,
// sorted by name: which phases ran, how often. Two runs of the same
// workload — serial or parallel — must produce equal Stable views.
func (a *Attribution) Stable() []PhaseCount {
	out := make([]PhaseCount, 0, len(a.Phases))
	for _, st := range a.Phases {
		out = append(out, PhaseCount{Name: st.Name, Count: st.Count})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TopSpans returns the n longest closed spans whose name starts with
// prefix, longest first (ties broken by name, then start time, so the
// ranking is stable). The straggler report: with per-cell spans, prefix
// "cell/" names the cells that serialize a parallel run.
func TopSpans(spans []Span, prefix string, n int) []Span {
	var out []Span
	for _, sp := range spans {
		if !sp.Open && strings.HasPrefix(sp.Name, prefix) {
			out = append(out, sp)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dur != out[j].Dur {
			return out[i].Dur > out[j].Dur
		}
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Start < out[j].Start
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// WriteAttribution renders the report as a sorted text table:
//
//	phase                          count      wall      self  self%       cpu    allocs     bytes
//	hlo/pass1/inline                  56   912.4ms   903.1ms  41.2%   899.7ms    123456    45.2MB
//	...
//	(unattributed in roots)                          110.2ms   5.0%
//	total                                  2191.8ms                  coverage 95.0%
func WriteAttribution(w io.Writer, a *Attribution) error {
	bw := bufio.NewWriter(w)
	width := len("(unattributed in roots)")
	for _, st := range a.Phases {
		if len(st.Name) > width {
			width = len(st.Name)
		}
	}
	fmt.Fprintf(bw, "%-*s %6s %10s %10s %6s %10s %9s %9s\n",
		width, "phase", "count", "wall", "self", "self%", "cpu", "allocs", "bytes")
	pct := func(d time.Duration) float64 {
		if a.Total <= 0 {
			return 0
		}
		return 100 * float64(d) / float64(a.Total)
	}
	for _, st := range a.Phases {
		fmt.Fprintf(bw, "%-*s %6d %9.2fms %9.2fms %5.1f%% %9.2fms %9d %9s\n",
			width, st.Name, st.Count,
			st.Wall.Seconds()*1000, st.Self.Seconds()*1000, pct(st.Self),
			st.CPU.Seconds()*1000, st.Allocs, sizeBytes(st.AllocBytes))
	}
	fmt.Fprintf(bw, "%-*s %6s %10s %9.2fms %5.1f%%\n",
		width, "(unattributed in roots)", "", "", a.RootSelf.Seconds()*1000, pct(a.RootSelf))
	fmt.Fprintf(bw, "%-*s %6s %9.2fms %10s %6s coverage %.1f%%\n",
		width, "total", "", a.Total.Seconds()*1000, "", "", 100*a.Coverage())
	return bw.Flush()
}

// sizeBytes renders a byte count with a binary unit suffix.
func sizeBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fkB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
