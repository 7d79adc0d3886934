package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/serve"
	"repro/internal/specsuite"
)

// streamLen is the number of requests in one farm pass: about one in
// eleven is the first request for its body and fills it; the rest wait
// on a fill still in flight or hit the store.
const streamLen = 1200

// farmVariant is one point of the request pool's scope x budget x
// inputs axes, applied to every specsuite benchmark. Every profile
// variant of a benchmark trains on the benchmark's own training input,
// as the builds of one program in a farm would, so the daemon runs one
// training per benchmark and serves the other profile fills from its
// training memo.
type farmVariant struct {
	endpoint string // "compile" or "run"
	cross    bool
	budget   int
	profile  bool
	// runDiv scales the first word of the benchmark's training input,
	// its workload size, down to the /run input: simulations stay
	// short, like the test runs of a build job.
	runDiv int64
}

var farmVariants = []farmVariant{
	{"compile", false, 100, false, 0},
	{"compile", true, 200, false, 0},
	{"compile", true, 100, true, 0},
	{"compile", true, 200, true, 0},
	{"run", false, 100, false, 2},
	{"run", true, 50, false, 4},
	{"run", true, 100, true, 4},
	{"run", false, 200, true, 2},
}

// scaled is in with its first word divided by div, at least 1.
func scaled(in []int64, div int64) []int64 {
	out := append([]int64(nil), in...)
	out[0] = max(1, out[0]/div)
	return out
}

// farmBody is one distinct request of the pool.
type farmBody struct {
	endpoint string
	body     []byte
	// traced is body with "spans": true, the form traced passes send:
	// the daemon then returns its per-phase times with the result.
	traced []byte
	req    serve.RunRequest // what body encodes
}

// farmPool builds the request pool: every specsuite benchmark under
// every variant, each distinct body once (benchmarks that share their
// sources send the same /compile body when no profile is asked for).
// The pool is the same for every seed, so every pass fills the same
// set of bodies and run_cycles and code_instrs do not depend on the
// seed; the seed decides the stream drawn from it.
func farmPool() ([]farmBody, error) {
	var pool []farmBody
	have := map[string]bool{}
	for _, b := range specsuite.All() {
		for _, v := range farmVariants {
			budget := v.budget
			req := serve.RunRequest{CompileRequest: serve.CompileRequest{
				Sources: b.Sources,
				Options: serve.OptionsJSON{CrossModule: v.cross, Budget: &budget},
			}}
			if v.profile {
				req.Options.Profile = true
				req.Options.TrainInputs = b.Train
			}
			if v.endpoint == "run" {
				req.Inputs = scaled(b.Train, v.runDiv)
			}
			fb := farmBody{endpoint: v.endpoint, req: req}
			for _, spans := range []bool{false, true} {
				r := req
				r.Spans = spans
				var body []byte
				var err error
				if v.endpoint == "run" {
					body, err = json.Marshal(r)
				} else {
					body, err = json.Marshal(r.CompileRequest)
				}
				if err != nil {
					return nil, err
				}
				if spans {
					fb.traced = body
				} else {
					fb.body = body
				}
			}
			if !have[fb.endpoint+string(fb.body)] {
				have[fb.endpoint+string(fb.body)] = true
				pool = append(pool, fb)
			}
		}
	}
	return pool, nil
}

// farmStream draws one pass's request sequence from a pool of size n.
// Every body is introduced once, in seeded order, one every few
// requests through the first three quarters of the stream, so every
// pass fills the whole pool. Every other request repeats an introduced
// body, seeded, with Zipf popularity by recency: the body introduced
// r introductions ago has weight 1/(r+1), so a fresh artifact is the
// one most asked for, as when the jobs that depend on a build fetch its
// result. A body is therefore often requested again while its fill is
// still running, and the daemon's single-flight serves that request.
// The mix is an assumption, not a measured trace.
func farmStream(seed int64, n, length int) []int {
	r := rand.New(rand.NewSource(seed))
	intro := r.Perm(n)
	every := max(1, length*3/4/n)
	stream := make([]int, 0, length)
	var total float64 // Σ 1/(r+1) over the introduced bodies
	introduced := 0
	for i := 0; i < length; i++ {
		if introduced < n && i == introduced*every {
			stream = append(stream, intro[introduced])
			introduced++
			total += 1 / float64(introduced)
			continue
		}
		x := r.Float64() * total
		rank := introduced - 1
		for k := 0; k < introduced; k++ {
			x -= 1 / float64(k+1)
			if x < 0 {
				rank = k
				break
			}
		}
		stream = append(stream, intro[introduced-1-rank])
	}
	return stream
}

// farm is a closed loop of two clients, each a build job waiting for
// its reply, sending /compile and /run requests to an in-process
// serve.Gateway in front of one serve.Server with two workers on a
// fresh cas store. It is the one workload that exercises serve and
// cas.
type farm struct {
	pool   []farmBody
	seed   int64
	out    string
	passes int
	// seen counts the 200 bodies each pool entry was answered with,
	// by digest; check compares them with the oracle.
	seen []map[[32]byte]int
	// oracle holds what the in-process oracle computed for each pool
	// body; nil until first needed.
	oracle []oracleEntry
}

// oracleEntry is what the oracle computed for one pool body.
type oracleEntry struct {
	digest     [32]byte // of the response hlod owes the body
	trainSteps int64    // interpreter steps of the body's training run
	sim        [32]byte // /run: simDigest of the simulation's inputs
}

func newFarm(seed int64, out string) (*farm, error) {
	pool, err := farmPool()
	if err != nil {
		return nil, err
	}
	f := &farm{pool: pool, seed: seed, out: out}
	f.seen = make([]map[[32]byte]int, len(pool))
	for i := range f.seen {
		f.seen[i] = map[[32]byte]int{}
	}
	return f, nil
}

// farmNode is one pass's serving stack: store, daemon, gateway.
type farmNode struct {
	dir     string
	store   *cas.Store
	srv     *serve.Server
	gw      *serve.Gateway
	servers []*http.Server
	done    sync.WaitGroup
	url     string // the gateway
}

// listen serves h on a loopback port until shutdown.
func (n *farmNode) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	n.servers = append(n.servers, hs)
	n.done.Add(1)
	go func() {
		defer n.done.Done()
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "farm:", err)
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

func (f *farm) start(tr *tracer) (*farmNode, error) {
	n := &farmNode{dir: filepath.Join(f.out, fmt.Sprintf("farm-store-%d-%d", os.Getpid(), f.passes))}
	f.passes++
	if err := os.RemoveAll(n.dir); err != nil {
		return nil, err
	}
	store, err := cas.Open(n.dir, cas.Options{})
	if err != nil {
		return nil, err
	}
	n.store = store
	n.srv = serve.New(serve.Config{Workers: workers, Store: store})
	var daemon http.Handler = n.srv
	if tr != nil {
		daemon = stamped(daemon, tr, "X-Perfbench-Daemon")
	}
	durl, err := n.listen(daemon)
	if err != nil {
		n.stop()
		return nil, err
	}
	n.gw = serve.NewGateway(serve.GatewayConfig{
		Backends: []string{durl},
		Client:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}, Timeout: time.Minute},
	})
	var gw http.Handler = n.gw
	if tr != nil {
		gw = stamped(gw, tr, "X-Perfbench-Gateway")
	}
	if n.url, err = n.listen(gw); err != nil {
		n.stop()
		return nil, err
	}
	return n, nil
}

// stop shuts the stack down, waits for its goroutines and deletes the
// store.
func (n *farmNode) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(n.servers) - 1; i >= 0; i-- {
		if err := n.servers[i].Shutdown(ctx); err != nil {
			n.servers[i].Close()
		}
	}
	n.done.Wait()
	if n.gw != nil {
		n.gw.Close() // also closes the gateway's idle connections to the daemon
	}
	if err := os.RemoveAll(n.dir); err != nil {
		fmt.Fprintln(os.Stderr, "farm:", err)
	}
}

// reply is one request's outcome as the client saw it.
type reply struct {
	idx     int // pool index
	status  int
	latency time.Duration
	body    []byte
	header  http.Header
	start   int64 // traced passes: client send and receive times
	end     int64
	// resp is the decoded body of a traced 200, its per-phase times in
	// phases and stripped from resp.
	resp   *serve.RunResponse
	phases []obs.PhaseStat
}

// streamSeed is the seed of pass k's stream. Each pass of a run sends a
// stream of its own, so the median over passes spans several orders of
// the same pool rather than resting on one.
func streamSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) }

func (f *farm) pass(ctx context.Context, tr *tracer) (*passResult, error) {
	t0 := time.Now()
	stream := farmStream(streamSeed(f.seed, f.passes), len(f.pool), streamLen)
	n, err := f.start(tr)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	defer n.stop()
	transport := &http.Transport{MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: time.Minute}

	replies := make([]reply, len(stream))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(stream) {
					return
				}
				f.send(ctx, client, n.url, tr, i, stream[i], &replies[i])
			}
		}()
	}
	wg.Wait()
	res := &passResult{wall: time.Since(start), ops: len(stream), setup: setup}

	firsts := map[int][]byte{}
	for i := range replies {
		rp := &replies[i]
		res.latency = append(res.latency, rp.latency)
		if rp.status != http.StatusOK {
			res.failed++
			fmt.Fprintf(os.Stderr, "farm: request %d (%s): status %d\n", i, f.pool[rp.idx].endpoint, rp.status)
			continue
		}
		body := rp.body
		if tr != nil {
			if body, err = rp.strip(f.pool[rp.idx].endpoint); err != nil {
				res.failed++
				fmt.Fprintf(os.Stderr, "farm: request %d: %v\n", i, err)
				continue
			}
		}
		f.seen[rp.idx][sha256.Sum256(body)]++
		if _, ok := firsts[rp.idx]; !ok {
			firsts[rp.idx] = body
		}
	}
	for idx, body := range firsts {
		var resp serve.RunResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, fmt.Errorf("farm: decode response: %w", err)
		}
		res.codeInstrs += int64(resp.CodeSize)
		if f.pool[idx].endpoint == "run" && resp.Sim != nil {
			res.cycles += resp.Sim.Cycles
		}
	}
	if tr != nil {
		if err := f.layers(ctx, tr, n, replies, &res.layers); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// strip takes the daemon's per-phase times out of a traced 200 body and
// returns the body as an untraced request would have received it, for
// the byte oracle. The body must survive a decode and re-encode
// unchanged, so nothing but the phases differs from what hlod sent.
func (rp *reply) strip(endpoint string) ([]byte, error) {
	var resp serve.RunResponse
	if err := json.Unmarshal(rp.body, &resp); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	encode := func() []byte {
		var v any = resp.CompileResponse
		if endpoint == "run" {
			v = resp
		}
		data, err := json.Marshal(v)
		if err != nil {
			return nil
		}
		return append(data, '\n')
	}
	if !bytes.Equal(encode(), rp.body) {
		return nil, errors.New("response does not re-encode to the bytes received")
	}
	rp.phases, resp.Phases = resp.Phases, nil
	rp.resp = &resp
	return encode(), nil
}

// send issues request i of the stream, for pool body idx, and records
// the reply. A transport error leaves status 0, a failed request like
// any non-2xx.
func (f *farm) send(ctx context.Context, client *http.Client, url string, tr *tracer, i, idx int, rp *reply) {
	b := &f.pool[idx]
	rp.idx = idx
	payload := b.body
	if tr != nil {
		payload = b.traced
		rp.start = tr.now()
	}
	t0 := time.Now()
	body, resp, err := post(ctx, client, url+"/"+b.endpoint, payload)
	rp.latency = time.Since(t0)
	if tr != nil {
		rp.end = tr.now()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "farm: request %d: %v\n", i, err)
		return
	}
	rp.status = resp.StatusCode
	rp.body = body
	rp.header = resp.Header
}

func post(ctx context.Context, client *http.Client, url string, body []byte) ([]byte, *http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp, err
}

// layers turns a traced pass's replies and the stack's counters into
// per-layer numbers, and records each request's spans: request, the
// gateway inside it and the daemon inside that, the inner two taken
// from the stamps the wrappers put on the response. A body the store
// did not serve was executed once, for the earliest of its requests
// (the fill); its other requests waited on that fill in the daemon's
// single-flight. The pipeline layers' times are the per-phase times the
// daemon returned with each fill.
func (f *farm) layers(ctx context.Context, tr *tracer, n *farmNode, replies []reply, ls *layerStats) error {
	orc, err := f.oracleEntries(ctx)
	if err != nil {
		return err
	}
	fills := map[int]int{} // pool index -> reply index
	for i := range replies {
		rp := &replies[i]
		if rp.status != http.StatusOK || rp.header.Get("X-Hlod-Cache") == "hit" {
			continue
		}
		if j, ok := fills[rp.idx]; !ok || rp.start < replies[j].start {
			fills[rp.idx] = i
		}
	}
	for i := range replies {
		rp := &replies[i]
		o := tr.op(fmt.Sprintf("farm/%d", i))
		root := o.add("request", -1, rp.start, rp.end)
		g0, g1, gok := parseStamp(rp.header.Get("X-Perfbench-Gateway"))
		d0, d1, dok := parseStamp(rp.header.Get("X-Perfbench-Daemon"))
		if gok {
			gsp := o.add("gateway", root, g0, g1)
			if dok {
				o.add("daemon", gsp, d0, d1)
			}
		}
		o.finish()
		if !dok || rp.status != http.StatusOK {
			continue
		}
		handler := time.Duration(d1 - d0)
		ls.hop = append(ls.hop, time.Duration(rp.end-rp.start)-handler)
		switch {
		case rp.header.Get("X-Hlod-Cache") == "hit":
			ls.hit = append(ls.hit, handler)
		case fills[rp.idx] == i:
			ls.fill = append(ls.fill, handler)
		default:
			ls.inflight++
		}
	}
	seen := map[[32]byte]bool{}
	for idx, i := range fills {
		rp, b := &replies[i], &f.pool[idx]
		if rp.resp == nil {
			continue
		}
		for _, ph := range rp.phases {
			switch ph.Name {
			case "frontend":
				ls.frontend += ph.Wall
			case "frontend/parse":
				ls.parse += ph.Wall
				for _, src := range b.req.Sources {
					ls.parseBytes += int64(len(src))
				}
			case "train/run":
				ls.train += ph.Wall
				ls.trainSteps += orc[idx].trainSteps
			case "hlo":
				ls.hlo += ph.Wall
			case "backend":
				ls.backend += ph.Wall
			case "simulate":
				ls.sim += ph.Wall
			}
		}
		st := &rp.resp.Stats
		ls.hloCost += st.CostAfter
		ls.inlines += int64(st.Inlines)
		ls.clones += int64(st.Clones)
		ls.sizeBefore += int64(st.SizeBefore)
		ls.sizeAfter += int64(st.SizeAfter)
		ls.backendInstrs += int64(rp.resp.CodeSize)
		if sim := rp.resp.Sim; sim != nil {
			ls.simRuns++
			ls.simInstrs += sim.Instrs
			// Bodies with equal simulation digests retire the same
			// instructions, so which of them counts as the repeat does
			// not matter.
			if seen[orc[idx].sim] {
				ls.simRepeats++
				ls.simRepInstr += sim.Instrs
			}
			seen[orc[idx].sim] = true
		}
	}
	for _, c := range n.srv.Registry().Counters() {
		switch {
		case c.Name == "serve.cas.resp.hit":
			ls.serveHits += c.Value
		case c.Name == "serve.cas.resp.miss":
			ls.serveMiss += c.Value
		case strings.HasPrefix(c.Name, "http.req|") && strings.HasSuffix(c.Name, "|429"):
			ls.rejected429 += c.Value
		case c.Name == "cache.frontend.hit":
			ls.frontendRepeats += c.Value
		case c.Name == "cache.train.hit":
			ls.trainRepeats += c.Value
		}
	}
	ls.cas = n.store.Counters()
	return nil
}

// stamped wraps h so that every response carries, in header name, the
// tracer times at which h started and at which it wrote its header.
func stamped(h http.Handler, tr *tracer, name string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(&stampWriter{ResponseWriter: w, tr: tr, name: name, start: tr.now()}, r)
	})
}

type stampWriter struct {
	http.ResponseWriter
	tr    *tracer
	name  string
	start int64
	wrote bool
}

func (s *stampWriter) WriteHeader(code int) {
	if !s.wrote {
		s.wrote = true
		s.Header().Set(s.name, fmt.Sprintf("%d %d", s.start, s.tr.now()))
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *stampWriter) Write(b []byte) (int, error) {
	if !s.wrote {
		s.WriteHeader(http.StatusOK)
	}
	return s.ResponseWriter.Write(b)
}

func parseStamp(v string) (start, end int64, ok bool) {
	_, err := fmt.Sscanf(v, "%d %d", &start, &end)
	return start, end, err == nil
}

// check is the farm's oracle, run after the timed window: every 200
// body must be byte-identical to the response built in-process from a
// driver compilation of the same request, with a cache of its own.
func (f *farm) check(ctx context.Context) (int, error) {
	orc, err := f.oracleEntries(ctx)
	if err != nil {
		return 0, err
	}
	failed := 0
	for i, seen := range f.seen {
		for d, k := range seen {
			if d != orc[i].digest {
				failed += k
				fmt.Fprintf(os.Stderr, "farm: %d replies to pool entry %d (%s) differ from the oracle\n", k, i, f.pool[i].endpoint)
			}
		}
	}
	return failed, nil
}

// oracleEntries runs the oracle over the whole pool once per process,
// outside every timed pass.
func (f *farm) oracleEntries(ctx context.Context) ([]oracleEntry, error) {
	if f.oracle != nil {
		return f.oracle, nil
	}
	cache := driver.NewCache()
	orc := make([]oracleEntry, len(f.pool))
	err := par.Do(workers, len(f.pool), func(i int) error {
		return oracle(ctx, &f.pool[i], cache, &orc[i])
	})
	if err != nil {
		return nil, fmt.Errorf("farm oracle: %w", err)
	}
	f.oracle = orc
	return orc, nil
}

// oracle renders the response hlod owes a request, the way its handlers
// do: the compilation's statistics, plus the simulation for /run, as
// compact JSON with a trailing newline. It records the response's
// digest, the training run's step count and the simulation's digest.
func oracle(ctx context.Context, b *farmBody, cache *driver.Cache, e *oracleEntry) error {
	hlo := core.DefaultOptions()
	hlo.Budget = *b.req.Options.Budget
	opts := driver.Options{
		CrossModule: b.req.Options.CrossModule,
		Profile:     b.req.Options.Profile,
		TrainInputs: b.req.Options.TrainInputs,
		HLO:         hlo,
		Cache:       cache,
	}
	c, err := driver.CompileCtx(ctx, b.req.Sources, opts)
	if err != nil {
		return err
	}
	if c.TrainResult != nil {
		e.trainSteps = c.TrainResult.Steps
	}
	var v any = serve.CompileResponse{Stats: c.Stats, CompileCost: c.CompileCost, CodeSize: c.CodeSize}
	if b.endpoint == "run" {
		st, err := c.RunCtx(ctx, opts, b.req.Inputs)
		if err != nil {
			return err
		}
		e.sim = simDigest(c.Machine, opts.Machine, b.req.Inputs)
		v = serve.RunResponse{CompileResponse: v.(serve.CompileResponse), Sim: st, CPI: st.CPI()}
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	e.digest = sha256.Sum256(append(data, '\n'))
	return nil
}
