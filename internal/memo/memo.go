// Package memo is the one memoization and single-flight layer shared by
// the compile cache (driver.Cache: front end, training, simulation) and
// the daemon's request coalescing (serve's flight group).
//
// A Group maps a key to the outcome of one call of a fill function.
// Concurrent callers of the same key share one fill: the first caller
// runs it, later ones wait for its outcome. A fill whose error is a
// context error (context.Canceled or context.DeadlineExceeded) is never
// latched and never shared: the entry is dropped, the filling caller
// gets its own outcome, and one waiter takes over as the new filler
// under its own context. A fill that panics is dropped the same way
// before the panic continues up the filler's stack. Every other
// outcome, errors included, is shared with the waiters and, unless the
// group forgets, returned to every later caller of the key.
package memo

import (
	"context"
	"errors"
	"sync"
)

// Group is a keyed memo with single flight. The zero value is ready to
// use and retains every completed outcome; the map is allocated on the
// first call. A Group must not be copied after first use.
type Group[K comparable, V any] struct {
	// Forget drops each outcome as soon as its fill finishes: the group
	// then only coalesces concurrent calls and memoizes nothing.
	Forget bool

	mu    sync.Mutex
	calls map[K]*call[V]
}

type call[V any] struct {
	done chan struct{} // closed when the fill finishes
	val  V
	err  error
	// dropped marks a fill that ended in a context error or a panic:
	// its outcome belongs to its filler alone, and waiters retry.
	dropped bool
	waiters int // callers that have waited on done; guarded by the group's mu
}

// Do returns the outcome of fill for key. The first caller of a key
// runs fill; callers arriving while it runs wait for it, or for their
// own ctx, whichever ends first. shared reports whether this caller
// waited on another caller's fill instead of running its own. A waiter
// whose ctx ends first gets shared, ctx.Err() and the zero V. ctx
// bounds only the wait: fill runs under whatever context it closes
// over.
func (g *Group[K, V]) Do(ctx context.Context, key K, fill func() (V, error)) (v V, shared bool, err error) {
	for {
		g.mu.Lock()
		c, ok := g.calls[key]
		if !ok {
			if g.calls == nil {
				g.calls = make(map[K]*call[V])
			}
			c = &call[V]{done: make(chan struct{})}
			g.calls[key] = c
			g.mu.Unlock()
			g.fill(key, c, fill)
			return c.val, false, c.err
		}
		c.waiters++
		g.mu.Unlock()
		select {
		case <-c.done:
			if c.dropped {
				continue // the filler was canceled or panicked; take over
			}
			return c.val, true, c.err
		case <-ctx.Done():
			var zero V
			return zero, true, ctx.Err()
		}
	}
}

// fill runs f for the call c registered under key and publishes the
// outcome. The deferred half also runs when f panics, so waiters never
// block on a fill that will not finish.
func (g *Group[K, V]) fill(key K, c *call[V], f func() (V, error)) {
	finished := false
	defer func() {
		c.dropped = !finished || errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded)
		if c.dropped || g.Forget {
			// Nothing replaces a key's call while it is registered, so
			// the entry under key is still c.
			g.mu.Lock()
			delete(g.calls, key)
			g.mu.Unlock()
		}
		close(c.done)
	}()
	c.val, c.err = f()
	finished = true
}
