package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"nova"
	"nova/client"
	"nova/internal/kiss"
	"nova/internal/serve"
	"nova/internal/verify"
)

// serve-mix stream parameters. Two closed-loop clients share one seeded
// stream over a growing pool of items, each a generated machine under one
// of serveAlgs. Every newEvery-th request is the first sighting of the
// next item; the others draw a seen item by Zipf rank, oldest first.
const (
	serveClients = 2
	newEvery     = 10
	zipfS        = 1.1
	// respellP is the share of draws of a seen item that send a new
	// state-renamed spelling instead of repeating a seen one.
	respellP = 0.05
	// serveRate is the requests per measured second: a run sends a fixed
	// stream of serveRate × --seconds requests (at least serveMin), sized
	// to take about --seconds on a 2-CPU host, so that the mix, the cache
	// and the memos evolve the same way on every run of a seed.
	serveRate = 500
	serveMin  = 2000
)

// serveSize is the stream length of a run measuring the given seconds.
func serveSize(seconds float64) int { return max(serveMin, int(serveRate*seconds)) }

var serveAlgs = []nova.Algorithm{nova.IGreedy, nova.IHybrid}

// key is one distinct request: an item in one spelling. Its first request
// is a cache MISS, every later one a HIT.
type key struct {
	spelling int
	rq       nova.Request
	done     chan struct{} // closed once the first request has answered
}

// call is one request of the stream and its outcome.
type call struct {
	k     *key
	first bool
	// wait, when set, is closed before the call may be sent: a repeat
	// waits for its key's first answer, so that it is a cache HIT, and a
	// new spelling for its item's first answer, so that the engine memos
	// are warm.
	wait <-chan struct{}
	rp   *nova.Response
	err  error
	lat  time.Duration
}

// stream draws the serve-mix requests in a seed-determined order.
type stream struct {
	mu       sync.Mutex
	n        int
	rng      *rand.Rand
	zipf     *rand.Zipf
	machines []Machine
	items    [][]*key // the spellings of every introduced item
	calls    []*call
}

// newStream starts a stream of n requests over machines, which must hold
// at least the n/newEvery/len(serveAlgs) machines it introduces.
func newStream(seed int64, n int, machines []Machine) *stream {
	rng := rand.New(rand.NewSource(machineSeed(seed, streamServe, -1)))
	return &stream{n: n, rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, 1<<20), machines: machines}
}

// next draws the next request, or returns nil once the stream is spent:
// a first sighting (cold MISS), a new spelling of a seen item (MISS with
// warm engine memos) or an exact repeat (HIT).
func (s *stream) next() *call {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.calls) == s.n {
		return nil
	}
	c := &call{first: true}
	if len(s.calls)%newEvery == 0 {
		item := len(s.items)
		m := s.machines[item/len(serveAlgs)]
		c.k = &key{done: make(chan struct{}),
			rq: nova.Request{KISS2: m.KISS2, Name: m.Name, Algorithm: serveAlgs[item%len(serveAlgs)]}}
		s.items = append(s.items, []*key{c.k})
	} else {
		r := s.zipf.Uint64()
		for r >= uint64(len(s.items)) {
			r = s.zipf.Uint64()
		}
		sp := s.items[r]
		if s.rng.Float64() < respellP {
			c.k = &key{spelling: len(sp), done: make(chan struct{}), rq: sp[0].rq}
			c.k.rq.KISS2 = Respell(sp[0].rq.KISS2, fmt.Sprintf("v%d_", len(sp)))
			c.wait = sp[0].done
			s.items[r] = append(sp, c.k)
		} else {
			c.k, c.first = sp[s.rng.Intn(len(sp))], false
			c.wait = c.k.done
		}
	}
	s.calls = append(s.calls, c)
	return c
}

// serveEnv is one in-process novad behind a loopback listener, and its
// client.
type serveEnv struct {
	srv      *serve.Server
	ts       *httptest.Server
	cl       *client.Client
	machines []Machine
}

// newServeEnv generates the machines a stream of n requests introduces and
// starts the server and its client.
func newServeEnv(seed int64, n int, wrap func(http.Handler) http.Handler) (*serveEnv, error) {
	items := (n + newEvery - 1) / newEvery
	e := &serveEnv{
		srv:      serve.New(serve.Config{}),
		machines: Corpus(fastShapes, seed, streamServe, 0, (items+len(serveAlgs)-1)/len(serveAlgs)),
	}
	var h http.Handler = e.srv
	if wrap != nil {
		h = wrap(h)
	}
	e.ts = httptest.NewServer(h)
	var err error
	e.cl, err = client.New(client.Config{BaseURL: e.ts.URL, HTTPClient: e.ts.Client(), Seed: uint64(seed)})
	if err == nil {
		err = e.cl.Healthz(context.Background())
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *serveEnv) close() { e.ts.Close() }

// setupServe builds the environment setupReps times (closing all but the
// last) and returns the last with the median build time.
func setupServe(c config, wrap func(http.Handler) http.Handler) (*serveEnv, float64, error) {
	return timeSetup(func() (*serveEnv, error) { return newServeEnv(c.seed, serveSize(c.seconds), wrap) }, (*serveEnv).close)
}

// drive sends the whole stream through serveClients closed-loop callers
// and returns the wall it took. A call with a wait channel waits for it
// off the clock.
func drive(env *serveEnv, st *stream) time.Duration {
	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	for range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < hardStop {
				cl := st.next()
				if cl == nil {
					return
				}
				if cl.wait != nil {
					<-cl.wait
				}
				t0 := time.Now()
				cl.rp, cl.err = env.cl.Encode(ctx, cl.k.rq)
				cl.lat = time.Since(t0)
				if cl.first {
					close(cl.k.done)
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// checkServe verifies the stream's answers and the server's accounting:
// every request succeeded; the responses of one key are identical; each
// key's response is verified once against its machine; all spellings of
// an item cost the same; and /debug/vars shows exactly one engine run per
// key, one cache hit per repeat and every admitted request finished.
// It returns the area and cube totals over the items the stream
// introduced.
func checkServe(res *Result, env *serveEnv, st *stream) (area, cubes int) {
	ctx := context.Background()
	if len(st.calls) < st.n {
		res.fail("stream unfinished after %v: %d of %d requests sent", hardStop, len(st.calls), st.n)
	}
	first := map[*key]*call{}
	keys, repeats := 0, 0
	for _, cl := range st.calls {
		res.Attempted++
		if cl.first {
			keys++
		}
		if cl.err == nil && cl.rp.Error != "" {
			cl.err = fmt.Errorf("%s", cl.rp.Error)
		}
		if cl.err != nil {
			res.fail("%s (%s): %v", cl.k.rq.Name, cl.k.rq.Algorithm, cl.err)
			continue
		}
		if !cl.first {
			repeats++
		}
		f0, seen := first[cl.k]
		if !seen {
			first[cl.k] = cl
			if cl.k.spelling == 0 {
				area += cl.rp.Area
				cubes += cl.rp.Cubes
			}
			f, err := nova.ParseKISSString(cl.k.rq.KISS2)
			var asg nova.Assignment
			if err == nil {
				asg, err = cl.rp.Assignment()
			}
			if err == nil {
				err = nova.VerifyContext(ctx, f, asg)
			}
			if err != nil {
				res.fail("%s (%s): verify: %v", cl.k.rq.Name, cl.k.rq.Algorithm, err)
			}
			continue
		}
		a, _ := json.Marshal(f0.rp)
		b, _ := json.Marshal(cl.rp)
		if string(a) != string(b) {
			res.fail("%s (%s): repeated response differs", cl.k.rq.Name, cl.k.rq.Algorithm)
		}
	}
	for _, sp := range st.items {
		for _, k := range sp[min(1, len(sp)):] {
			a, b := first[sp[0]], first[k]
			if a != nil && b != nil && (a.rp.Area != b.rp.Area || a.rp.Cubes != b.rp.Cubes) {
				res.fail("%s (%s): spelling %d costs area %d, spelling 0 area %d", k.rq.Name, k.rq.Algorithm, k.spelling, b.rp.Area, a.rp.Area)
			}
		}
	}

	v, err := debugVars(env)
	if err != nil {
		res.fail("/debug/vars: %v", err)
		return area, cubes
	}
	if v["serve.admitted"] != v["serve.completed"]+v["serve.failed"]+v["serve.canceled"] {
		res.fail("accounting: admitted %d != completed %d + failed %d + canceled %d",
			v["serve.admitted"], v["serve.completed"], v["serve.failed"], v["serve.canceled"])
	}
	if v["engine.encodes"] != int64(keys) {
		res.fail("accounting: engine.encodes %d, stream has %d distinct keys", v["engine.encodes"], keys)
	}
	if v["cache.hits"] != int64(repeats) {
		res.fail("accounting: cache.hits %d, stream has %d exact repeats", v["cache.hits"], repeats)
	}
	return area, cubes
}

func debugVars(env *serveEnv) (map[string]int64, error) {
	resp, err := env.ts.Client().Get(env.ts.URL + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Nova map[string]int64 `json:"nova"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	return body.Nova, nil
}

// latencies splits the stream's latencies into all, HIT and MISS samples,
// in milliseconds.
func latencies(st *stream) (all, hit, miss []float64) {
	for _, cl := range st.calls {
		if cl.err != nil {
			continue
		}
		all = append(all, ms(cl.lat))
		if cl.first {
			miss = append(miss, ms(cl.lat))
		} else {
			hit = append(hit, ms(cl.lat))
		}
	}
	return all, hit, miss
}

func runServe(c config) *Result {
	res := &Result{Correct: true}
	env, setup, err := setupServe(c, nil)
	if err != nil {
		res.fail("setup: %v", err)
		return res
	}
	defer env.close()
	st := newStream(c.seed, serveSize(c.seconds), env.machines)
	wall := drive(env, st)
	area, cubes := checkServe(res, env, st)
	all, hit, miss := latencies(st)
	fmt.Printf("samples requests=%d hits=%d misses=%d tail=p99\n", len(all), len(hit), len(miss))
	res.set("setup_s", setup, "s")
	res.set("ops_per_s", float64(len(all))/wall.Seconds(), "1/s")
	res.set("geomean_ms", geomean(all), "ms")
	res.set("tail_ms", quantile(all, 0.99), "ms")
	res.set("area_total", float64(area), "area")
	res.set("cubes_total", float64(cubes), "cubes")
	res.set("peak_rss_mb", peakRSSMB(), "MiB")
	return res
}

// handlerSpans wraps the server's ServeHTTP and records the duration and
// X-Cache state of every encode request.
type handlerSpans struct {
	h     http.Handler
	mu    sync.Mutex
	hit   []time.Duration
	miss  []time.Duration
	spent time.Duration // time spent recording
}

func (hs *handlerSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	hs.h.ServeHTTP(w, r)
	d := time.Since(t0)
	if r.URL.Path != "/v1/encode" {
		return
	}
	hs.mu.Lock()
	if w.Header().Get("X-Cache") == "HIT" {
		hs.hit = append(hs.hit, d)
	} else {
		hs.miss = append(hs.miss, d)
	}
	hs.spent += time.Since(t0) - d
	hs.mu.Unlock()
}

func meanMS(ds []time.Duration) float64 {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return ms(s) / float64(max(len(ds), 1))
}

// traceServe runs the serve-mix stream with a span around every
// ServeHTTP call, then times the cache key of every request and replays
// the parse and the engine layers for every key. The replay must reproduce the served assignment, cubes and area.
// The memos are warm from the stream by then, so the engine numbers here
// are warm ones; the *-cold workloads give the cold ones.
func traceServe(c config) *Result {
	res := &Result{Correct: true}
	hs := &handlerSpans{}
	env, _, err := setupServe(c, func(h http.Handler) http.Handler { hs.h = h; return hs })
	if err != nil {
		res.fail("setup: %v", err)
		return res
	}
	defer env.close()
	st := newStream(c.seed, serveSize(c.seconds), env.machines)
	drive(env, st)
	checkServe(res, env, st)
	all, hit, miss := latencies(st)

	v, err := debugVars(env)
	if err != nil {
		res.fail("/debug/vars: %v", err)
		return res
	}
	res.set("serve.handler_hit_ms", meanMS(hs.hit), "ms")
	res.set("serve.handler_miss_ms", meanMS(hs.miss), "ms")
	res.set("serve.cache_hit_ratio", float64(v["cache.hits"])/float64(max(v["cache.hits"]+v["cache.misses"], 1)), "ratio")
	res.set("serve.engine_encodes", float64(v["engine.encodes"]), "count")
	res.set("serve.flight_shared", float64(v["flight.shared"]), "count")
	res.set("serve.rejected", float64(v["http.rejected.saturated"]+v["http.rejected.draining"]), "count")
	res.set("serve.hit_p50_ms", quantile(hit, 0.5), "ms")
	res.set("serve.hit_p99_ms", quantile(hit, 0.99), "ms")
	res.set("serve.miss_p50_ms", quantile(miss, 0.5), "ms")
	res.set("serve.miss_p90_ms", quantile(miss, 0.9), "ms")
	var sum float64
	for _, x := range all {
		sum += x
	}
	handled := append(append([]time.Duration{}, hs.hit...), hs.miss...)
	res.set("client.overhead_ms", sum/float64(max(len(all), 1))-meanMS(handled), "ms")
	res.set("client.retries", float64(env.cl.Vars()["client.retries"]), "count")
	res.set("trace.overhead_ms", ms(hs.spent)/float64(max(len(handled), 1)), "ms")

	t := newTracer()
	for _, cl := range st.calls {
		t.call("serve.cache_key", func() { _, err = cl.k.rq.CacheKey() })
		if err != nil {
			res.fail("%s: cache key: %v", cl.k.rq.Name, err)
		}
	}
	d, _ := t.total("serve.cache_key")
	res.set("serve.cache_key_ms", ms(d)/float64(max(len(st.calls), 1)), "ms")

	replays := 0
	for _, cl := range st.calls {
		if !cl.first || cl.err != nil {
			continue
		}
		replays++
		var f *kiss.FSM
		t.call("kiss.parse", func() { f, err = kiss.ParseString(cl.k.rq.KISS2) })
		if err != nil {
			res.fail("%s: %v", cl.k.rq.Name, err)
			continue
		}
		t.add("kiss.rows", float64(f.NumTerms()))
		rep, err := replay(t, f, cl.k.rq.Algorithm, 0)
		if err != nil {
			res.fail("%s: replay: %v", cl.k.rq.Name, err)
			continue
		}
		t.call("verify.check", func() { err = verify.EquivalentFSM(f, rep.asg, verify.Options{}) })
		if err != nil {
			res.fail("%s: verify: %v", cl.k.rq.Name, err)
		}
		asg, err := cl.rp.Assignment()
		if err != nil || !sameEncoding(asg, rep.asg) || cl.rp.Cubes != rep.cubes || cl.rp.Area != rep.area {
			res.fail("%s (%s): replay guard: replay gives area %d cubes %d, served area %d cubes %d",
				cl.k.rq.Name, cl.k.rq.Algorithm, rep.area, rep.cubes, cl.rp.Area, cl.rp.Cubes)
		}
	}
	fmt.Printf("samples requests=%d hits=%d misses=%d replays=%d\n", len(all), len(hit), len(miss), replays)
	t.engineMetrics(res, replays)
	finishLayers(res)
	return res
}
