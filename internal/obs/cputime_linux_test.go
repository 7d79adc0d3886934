//go:build linux

package obs

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// processCPU is the CPU time (user + system) the whole process has
// consumed.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// burn spins for about d of the calling thread's CPU.
func burn(d time.Duration) {
	end := time.Now().Add(d)
	x := 1
	for time.Now().Before(end) {
		for i := 0; i < 1000; i++ {
			x = x*31 + i
		}
	}
	sink.Add(int64(x))
}

// sink keeps burn's loop observable, so the compiler cannot drop it.
var sink atomic.Int64

// TestSpanCPUNeverExceedsWallOrProcess runs spans that park mid-way,
// so their goroutines resume on whichever OS thread is free, after
// giving one thread far more CPU than the others. A CPU delta taken
// across two threads' clocks would then credit a span with up to that
// imbalance. Two invariants must hold: no leaf span reports more CPU
// than its wall time, and the spans' summed self CPU (a span's CPU
// less its children's) stays within the CPU the process used.
func TestSpanCPUNeverExceedsWallOrProcess(t *testing.T) {
	const eps = time.Millisecond
	cpu0 := processCPU(t)

	// Make one OS thread CPU-rich: 100 ms more than any other.
	locked := make(chan struct{})
	go func() {
		runtime.LockOSThread()
		burn(100 * time.Millisecond)
		runtime.UnlockOSThread()
		close(locked)
	}()
	<-locked

	const workers, cells, leaves = 4, 6, 4
	recs := make([]*Recorder, workers)
	var wg sync.WaitGroup
	for w := range recs {
		recs[w] = New()
		wg.Add(1)
		go func(rec *Recorder) {
			defer wg.Done()
			for c := 0; c < cells; c++ {
				cell := rec.Begin("cell")
				for l := 0; l < leaves; l++ {
					sp := rec.Begin("leaf")
					burn(300 * time.Microsecond)
					time.Sleep(200 * time.Microsecond) // park: may resume on another thread
					burn(300 * time.Microsecond)
					sp.End()
				}
				cell.End()
			}
		}(recs[w])
	}
	wg.Wait()
	used := processCPU(t) - cpu0

	var spans []Span
	for _, rec := range recs {
		spans = append(spans, rec.Spans()...)
	}
	var selfSum time.Duration
	known := 0
	for i, sp := range spans {
		if sp.Open {
			t.Fatalf("span %d left open", i)
		}
		if sp.CPUUnknown {
			if sp.CPU != 0 {
				t.Errorf("span %d: CPU %v with CPUUnknown set, want 0", i, sp.CPU)
			}
		} else {
			known++
		}
		children := time.Duration(0)
		for j := i + 1; j < len(spans) && spans[j].Depth > sp.Depth; j++ {
			if spans[j].Depth == sp.Depth+1 {
				children += spans[j].CPU
			}
		}
		if sp.Name == "leaf" && sp.CPU > sp.Dur+eps {
			t.Errorf("leaf span %d: CPU %v exceeds wall %v", i, sp.CPU, sp.Dur)
		}
		if self := sp.CPU - children; self > 0 {
			selfSum += self
		}
	}
	if known == 0 {
		t.Fatal("no span has a known CPU time; the invariants are vacuous")
	}
	if selfSum > used+eps {
		t.Errorf("summed self CPU %v exceeds the process's %v", selfSum, used)
	}
}

// TestTraceMarksUnknownCPU: the text trace shows an unknown CPU time
// as such, not as a span that used none.
func TestTraceMarksUnknownCPU(t *testing.T) {
	var b strings.Builder
	if err := WriteTrace(&b, []Span{{Name: "simulate/run", Dur: time.Second, CPUUnknown: true}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "cpu ?") {
		t.Errorf("trace %q does not mark the unknown CPU", b.String())
	}
}
