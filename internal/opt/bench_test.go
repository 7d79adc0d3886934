package opt_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/ir"
	"repro/internal/randprog"
)

// BenchmarkOptimizeLadder is HLO's scaling rung: whole-program HLO at
// the default options (scalar clean-up after every inline and clone)
// on randprog programs at each compile-gen ladder shape. It reports HLO
// nanoseconds per unit of the paper's compile-cost model, Σ size² of
// the program as the front end emits it; a flat figure across shapes
// means HLO's cost grows as the Figure 2 model says it does.
func BenchmarkOptimizeLadder(b *testing.B) {
	seeds := []int64{1, 2, 3, 4}
	for _, sh := range ladder {
		b.Run(fmt.Sprintf("%dx%d", sh.modules, sh.funcs), func(b *testing.B) {
			srcs := make([][]string, len(seeds))
			for i, seed := range seeds {
				srcs[i] = randprog.Generate(seed, ladderConfig(sh.modules, sh.funcs))
			}
			var hlo time.Duration
			var cost int64
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for _, src := range srcs {
					p, err := driver.Frontend(src)
					if err != nil {
						b.Fatal(err)
					}
					p.Funcs(func(f *ir.Func) bool {
						cost += int64(f.Size()) * int64(f.Size())
						return true
					})
					start := time.Now()
					_, err = core.RunChecked(p, core.WholeProgram(), core.DefaultOptions())
					hlo += time.Since(start)
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(hlo.Nanoseconds())/float64(cost), "ns/cost-unit")
			b.ReportMetric(float64(cost)/float64(b.N), "cost-units/op")
		})
	}
}
