package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// serve-zipf: an in-process adore-serve (serve.New with the command's
// defaults, behind serve.Hardened on a loopback port), fresh for every
// rep, answering a closed loop of serveConns client connections that
// replay a seeded Zipf stream over adore-load's /run universe. A rep is
// one replay of the stream: its first request for each document is a
// cold simulation, every repeat a cache hit.

const (
	serveScale  = 0.02 // adore-load's default request scale
	serveZipfS  = 1.2
	serveStream = 5000 // requests per rep; enough that nearly every seed draws all 102 documents
	serveConns  = 2
)

type serveRequest struct {
	path string
	body []byte
}

type serveZipf struct {
	uni      []serveRequest
	stream   []int
	distinct int

	bodies map[string][32]byte // fingerprint → body hash, across reps
	insts  map[string]uint64   // fingerprint → instructions in the body
	pfs    map[string]int      // fingerprint → prefetch sequences in the body

	hitMs, missMs []float64 // untraced reps after the first (warm-up) one
	reps          int
	acc           serveAcc
}

// serveAcc sums the traced reps' server-side counters.
type serveAcc struct {
	eng                 engineTotals
	hits, misses, evict uint64
	handlerNs, handlerN uint64
	clientMs            float64
	requests            int
	wallNs              uint64
	pfs                 uint64
}

func newServeZipf(seed int64) *serveZipf {
	s := &serveZipf{
		bodies: map[string][32]byte{},
		insts:  map[string]uint64{},
		pfs:    map[string]int{},
	}
	s.uni = serveUniverse()
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, serveZipfS, 1, uint64(len(s.uni)-1))
	seen := map[int]bool{}
	for i := 0; i < serveStream; i++ {
		d := int(zipf.Uint64())
		s.stream = append(s.stream, d)
		seen[d] = true
	}
	s.distinct = len(seen)
	return s
}

// serveUniverse is adore-load's /run universe: every workload × every
// policy-matrix column, in registry × column order.
func serveUniverse() []serveRequest {
	var out []serveRequest
	for _, name := range workloads.Names() {
		for _, col := range harness.PolicyColumns() {
			doc := map[string]any{"workload": name, "scale": serveScale}
			switch col {
			case harness.PolicyBaseColumn:
			case harness.PolicySelectorColumn:
				doc["selector"] = true
			default:
				doc["policy"] = col
			}
			b, err := json.Marshal(doc)
			if err != nil {
				panic(err)
			}
			out = append(out, serveRequest{path: "/run", body: b})
		}
	}
	return out
}

// setup times a server start: serve.New, listen, and the first answered
// /healthz. Each rep starts its own server the same way.
func (s *serveZipf) setup(ctx context.Context, tr *tracer) (time.Duration, error) {
	t0 := time.Now()
	sv, d, err := startServer(ctx)
	if err != nil {
		return 0, err
	}
	tr.record("serve.start", "setup", 0, t0, t0.Add(d))
	sv.stop()
	return d, nil
}

// server is one running in-process adore-serve and the client talking
// to it.
type server struct {
	srv       *serve.Server
	base      string
	client    *http.Client
	transport *http.Transport
	stopSrv   context.CancelFunc
	srvDone   chan error
	stopMgr   context.CancelFunc
	mgrDone   chan struct{}
}

// startServer starts a server with adore-serve's default configuration
// and returns once it answers /healthz, with the time that took.
func startServer(ctx context.Context) (*server, time.Duration, error) {
	start := time.Now()
	s := &server{srv: serve.New(serve.Config{Shards: 8, ShardCap: 128, Rebalance: 2 * time.Second, EngineResultCap: 1024})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	s.base = "http://" + ln.Addr().String()
	var mgrCtx, srvCtx context.Context
	mgrCtx, s.stopMgr = context.WithCancel(ctx)
	s.mgrDone = make(chan struct{})
	go func() { s.srv.Run(mgrCtx); close(s.mgrDone) }()
	srvCtx, s.stopSrv = context.WithCancel(ctx)
	s.srvDone = make(chan error, 1)
	go func() { s.srvDone <- serve.ListenAndServe(srvCtx, serve.Hardened(s.srv.Handler()), ln, 30*time.Second) }()
	s.transport = &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}
	s.client = &http.Client{Transport: s.transport, Timeout: 2 * time.Minute}
	if err := healthy(ctx, s.client, s.base); err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// stop shuts the server down gracefully and waits for its goroutines.
func (s *server) stop() {
	s.stopSrv()
	<-s.srvDone
	s.stopMgr()
	<-s.mgrDone
	s.transport.CloseIdleConnections()
}

// reply is one request's outcome as the client saw it.
type reply struct {
	ms     float64
	status int
	hit    bool
	fp     string
	body   []byte
	err    error
}

func (s *serveZipf) rep(ctx context.Context, tr *tracer, root int64, request string) (repOut, error) {
	var out repOut
	sv, _, err := startServer(ctx)
	if err != nil {
		return out, err
	}
	defer sv.stop()

	replies := make([]reply, len(s.stream))
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	loopStart := time.Now()
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(s.stream) {
					return
				}
				t0 := time.Now()
				replies[i] = post(ctx, sv.client, sv.base, s.uni[s.stream[i]])
				t1 := time.Now()
				replies[i].ms = float64(t1.Sub(t0)) / 1e6
				tr.record("serve.request", request+"/req-"+strconv.Itoa(i), root, t0, t1)
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(loopStart)

	for i := range replies {
		r := &replies[i]
		out.attempted++
		out.opsMs = append(out.opsMs, r.ms)
		if r.err != nil || r.status != http.StatusOK {
			out.failed++
			continue
		}
		sum := sha256.Sum256(r.body)
		if prev, ok := s.bodies[r.fp]; !ok {
			s.bodies[r.fp] = sum
			var doc serve.RunResponse
			if err := json.Unmarshal(r.body, &doc); err != nil {
				out.problems = append(out.problems, fmt.Sprintf("response %s: %v", r.fp, err))
			}
			s.insts[r.fp], s.pfs[r.fp] = doc.Instructions, doc.Prefetches
		} else if prev != sum {
			out.problems = append(out.problems, fmt.Sprintf("fingerprint %s: body differs from an earlier response", r.fp))
		}
		out.insts += s.insts[r.fp]
		if tr == nil && s.reps > 0 {
			if r.hit {
				s.hitMs = append(s.hitMs, r.ms)
			} else {
				s.missMs = append(s.missMs, r.ms)
			}
		}
	}
	s.reps++
	hits, misses, evictions := sv.srv.Cache().Stats()
	if misses != uint64(s.distinct) {
		out.problems = append(out.problems, fmt.Sprintf("cache misses %d, stream has %d distinct documents", misses, s.distinct))
	}
	if evictions != 0 {
		out.problems = append(out.problems, fmt.Sprintf("cache evicted %d entries", evictions))
	}
	if tr != nil {
		s.fold(sv.srv.Registry(), replies, hits, misses, evictions, out.wall)
	}
	return out, nil
}

// fold adds one traced rep's server counters to the accumulators.
func (s *serveZipf) fold(reg *metrics.Registry, replies []reply, hits, misses, evictions uint64, wall time.Duration) {
	a := &s.acc
	a.eng.fold(reg, int(reg.Gauge("adore_engine_workers", "").Value()), wall)
	h := reg.Histogram("adore_serve_request_latency_ns", "")
	a.handlerNs += h.Sum()
	a.handlerN += h.Count()
	a.hits += hits
	a.misses += misses
	a.evict += evictions
	a.wallNs += uint64(wall)
	for _, r := range replies {
		a.clientMs += r.ms
		a.requests++
		if !r.hit && r.err == nil {
			a.pfs += uint64(s.pfs[r.fp])
		}
	}
}

func healthy(ctx context.Context, client *http.Client, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

func post(ctx context.Context, client *http.Client, base string, r serveRequest) reply {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{
		status: resp.StatusCode,
		hit:    resp.Header.Get("X-Adore-Cache") == "hit",
		fp:     resp.Header.Get("X-Adore-Fingerprint"),
		body:   body,
		err:    err,
	}
}

func (s *serveZipf) layers(reps int, spans []span) (map[string]float64, map[string]string) {
	a, n := s.acc, float64(reps)
	m := a.eng.layers(reps)
	clientMean := a.clientMs / float64(max(a.requests, 1))
	handlerMean := float64(a.handlerNs) / float64(max(a.handlerN, 1)) / 1e6
	m["serve.request_ms"] = clientMean
	m["serve.handler_ms"] = handlerMean
	m["serve.outside_handler_ms"] = clientMean - handlerMean
	m["serve.cache.hit_ratio"] = ratio(a.hits, a.hits+a.misses)
	m["serve.cache.evictions"] = float64(a.evict) / n
	m["serve.rps"] = float64(a.requests) / (float64(a.wallNs) / 1e9)
	m["core.prefetches"] = float64(a.pfs) / n
	absent := engineAbsent()
	markAbsent(absent, "compiles run inside the server's engine, out of the benchmark's reach", "compiler.build_ms")
	markAbsent(absent, "engine jobs run inside the server; see serve.handler_ms", "harness.run_ms.p50", "harness.run_ms.max")
	markAbsent(absent, "the /run universe has no fork-grouped /sweep requests",
		"harness.fork.groups", "harness.fork.forked_runs", "harness.fork.warmup_reduction")
	markAbsent(absent, "the stream is not a full base/paper pairing; measured on policy-fork", "core.adore_speedup_pct")
	for _, name := range []string{"hit", "miss"} {
		xs := s.latencies(name)
		m["serve."+name+"_p50_ms"] = median(xs)
		if t, ok := tailOf(xs); ok {
			m["serve."+name+"_tail_ms"] = t.Value
		} else {
			absent["serve."+name+"_tail_ms"] = fmt.Sprintf("%d samples: too few for a tail", len(xs))
		}
	}
	return m, absent
}

func (s *serveZipf) report() []string {
	lines := []string{fmt.Sprintf("serve-zipf: %d requests per rep over a %d-document universe (zipf s=%g, scale %g), %d distinct, %d connections",
		len(s.stream), len(s.uni), serveZipfS, serveScale, s.distinct, serveConns)}
	for _, name := range []string{"hit", "miss"} {
		xs := s.latencies(name)
		if t, ok := tailOf(xs); ok {
			lines = append(lines, fmt.Sprintf("serve-zipf untraced %s latency: p50 %.4f ms, p%g %.4f ms (n=%d, %d beyond)",
				name, median(xs), t.P, t.Value, t.N, t.Beyond))
		}
	}
	return lines
}

// latencies returns the untraced reps' client latencies of cache hits or
// misses.
func (s *serveZipf) latencies(kind string) []float64 {
	if kind == "hit" {
		return s.hitMs
	}
	return s.missMs
}
