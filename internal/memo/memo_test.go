package memo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startFill runs g.Do for key in a goroutine whose fill blocks until
// release is closed, and returns once that fill is running.
func startFill(g *Group[string, int], key string, release <-chan struct{}, val int, err error) <-chan error {
	running := make(chan struct{})
	out := make(chan error, 1)
	go func() {
		_, _, e := g.Do(context.Background(), key, func() (int, error) {
			close(running)
			<-release
			return val, err
		})
		out <- e
	}()
	<-running
	return out
}

// waitForWaiters blocks until n callers have joined key's in-flight
// call.
func waitForWaiters(g *Group[string, int], key string, n int) {
	for {
		g.mu.Lock()
		joined := g.calls[key].waiters
		g.mu.Unlock()
		if joined >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDoCoalescesConcurrentCalls(t *testing.T) {
	var g Group[string, int]
	release := make(chan struct{})
	leader := startFill(&g, "k", release, 7, nil)
	var fills atomic.Int32
	var wg sync.WaitGroup
	shared := make([]bool, 4)
	vals := make([]int, 4)
	for i := range shared {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, s, err := g.Do(context.Background(), "k", func() (int, error) {
				fills.Add(1)
				return -1, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i], shared[i] = v, s
		}(i)
	}
	waitForWaiters(&g, "k", len(shared))
	close(release)
	wg.Wait()
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if n := fills.Load(); n != 0 {
		t.Errorf("%d extra fills ran, want 0", n)
	}
	for i := range shared {
		if !shared[i] || vals[i] != 7 {
			t.Errorf("waiter %d: value %d shared %v, want 7 shared", i, vals[i], shared[i])
		}
	}
}

func TestDoRetainsUnlessForget(t *testing.T) {
	for _, forget := range []bool{false, true} {
		g := Group[string, int]{Forget: forget}
		var fills int
		fill := func() (int, error) { fills++; return fills, nil }
		g.Do(context.Background(), "k", fill)
		v, shared, _ := g.Do(context.Background(), "k", fill)
		if forget {
			if shared || v != 2 || fills != 2 {
				t.Errorf("Forget: second call value %d shared %v after %d fills, want a fresh fill", v, shared, fills)
			}
		} else if !shared || v != 1 || fills != 1 {
			t.Errorf("retain: second call value %d shared %v after %d fills, want the memoized 1", v, shared, fills)
		}
	}
}

func TestDoLatchesPlainErrors(t *testing.T) {
	var g Group[string, int]
	boom := errors.New("boom")
	var fills int
	for i := 0; i < 2; i++ {
		_, _, err := g.Do(context.Background(), "k", func() (int, error) { fills++; return 0, boom })
		if !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v, want boom", i, err)
		}
	}
	if fills != 1 {
		t.Errorf("%d fills, want the error latched after 1", fills)
	}
}

func TestDoNeverLatchesContextErrors(t *testing.T) {
	for _, cerr := range []error{context.Canceled, context.DeadlineExceeded} {
		var g Group[string, int]
		wrapped := fmt.Errorf("fill: %w", cerr)
		if _, _, err := g.Do(context.Background(), "k", func() (int, error) { return 0, wrapped }); err != wrapped {
			t.Fatalf("filler err = %v, want its own %v", err, wrapped)
		}
		v, shared, err := g.Do(context.Background(), "k", func() (int, error) { return 5, nil })
		if err != nil || shared || v != 5 {
			t.Errorf("after a %v fill: value %d shared %v err %v, want a fresh 5", cerr, v, shared, err)
		}
	}
}

func TestDoWaiterTakesOverCanceledFill(t *testing.T) {
	var g Group[string, int]
	release := make(chan struct{})
	leader := startFill(&g, "k", release, 0, context.Canceled)
	type result struct {
		v      int
		shared bool
		err    error
	}
	got := make(chan result, 1)
	go func() {
		v, s, err := g.Do(context.Background(), "k", func() (int, error) { return 9, nil })
		got <- result{v, s, err}
	}()
	waitForWaiters(&g, "k", 1)
	close(release)
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	r := <-got
	if r.err != nil || r.shared || r.v != 9 {
		t.Errorf("waiter: value %d shared %v err %v, want its own fill of 9", r.v, r.shared, r.err)
	}
}

func TestDoWaiterContextEndsWait(t *testing.T) {
	var g Group[string, int]
	release := make(chan struct{})
	defer close(release)
	startFill(&g, "k", release, 1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, shared, err := g.Do(ctx, "k", func() (int, error) { return 2, nil }); !errors.Is(err, context.Canceled) || !shared {
		t.Errorf("dead waiter: shared %v err %v, want shared and its own context.Canceled", shared, err)
	}
}

func TestDoPanickingFillIsDropped(t *testing.T) {
	var g Group[string, int]
	func() {
		defer func() {
			if recover() == nil {
				t.Error("fill panic did not reach the filler")
			}
		}()
		g.Do(context.Background(), "k", func() (int, error) { panic("fill bug") })
	}()
	v, shared, err := g.Do(context.Background(), "k", func() (int, error) { return 3, nil })
	if err != nil || shared || v != 3 {
		t.Errorf("after a panicking fill: value %d shared %v err %v, want a fresh 3", v, shared, err)
	}
}
