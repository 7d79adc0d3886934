package serve

import (
	"context"
	"sync/atomic"

	"repro/internal/memo"
)

// flightResult is the fully rendered outcome of one executed request:
// exactly the bytes and headers a follower can replay. canceled marks
// an execution that died of its own client's disconnect — such a
// result is private to the leader and never shared.
type flightResult struct {
	status      int
	contentType string
	retryAfter  int // seconds; nonzero only on 429
	body        []byte
	canceled    bool
	// queueNS/serviceNS split the executing request's latency into
	// admission wait and actual work, surfaced as the X-Hlod-Queue-Ms /
	// X-Hlod-Service-Ms response headers. timed marks results that went
	// through admission (errors rendered before admission carry no
	// split). Followers replay the leader's split: the work they waited
	// on is the work these numbers describe.
	queueNS   int64
	serviceNS int64
	timed     bool
	// cached marks a response replayed from the farm's persistent
	// store (X-Hlod-Cache: hit): it consumed no worker slot, so it
	// carries no queue/service split.
	cached bool
}

// flightGroup coalesces concurrent identical requests ("single
// flight"): the first caller with a key executes; callers arriving
// while that execution is in flight wait for it and share the
// byte-identical response, consuming no queue slot. Flights exist only
// while a request is in the air — completed results are not cached
// here (cross-request memoization lives in driver.Cache, which the
// executed compile hits anyway).
//
// A leader whose own client disconnects does not doom its followers:
// the canceled result is dropped and one waiting follower retries as
// the new leader under its own context (memo.Group).
type flightGroup struct {
	g    memo.Group[string, *flightResult]
	hits atomic.Int64 // followers served from a shared result
}

func newFlightGroup() *flightGroup {
	return &flightGroup{g: memo.Group[string, *flightResult]{Forget: true}}
}

// do returns fn's result for key, sharing one execution among
// concurrent identical requests. shared reports whether the result
// came from another caller's flight. A ctx error is returned only for
// this caller's own context.
func (f *flightGroup) do(ctx context.Context, key string, fn func() *flightResult) (res *flightResult, shared bool, err error) {
	res, shared, err = f.g.Do(ctx, key, func() (*flightResult, error) {
		res := fn()
		if res.canceled {
			return res, context.Canceled // never shared: its client is gone
		}
		return res, nil
	})
	if err != nil && res == nil {
		return nil, false, err // this caller's own context ended while it waited
	}
	if res.canceled {
		return res, false, nil
	}
	if shared {
		f.hits.Add(1)
	}
	return res, shared, nil
}

// dedupHits reports how many requests were served from a shared flight.
func (f *flightGroup) dedupHits() int64 { return f.hits.Load() }
