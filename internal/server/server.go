package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"diag/internal/diagerr"
	"diag/internal/exp"
)

// Config parameterizes a Server. The zero value is production-shaped:
// GOMAXPROCS simulation workers, a 1024-flight queue, a 1024-entry
// result cache, and per-run observability on.
type Config struct {
	// Workers is the size of the worker pool, i.e. the bound on
	// concurrently executing simulations (<= 0: GOMAXPROCS).
	// Campaign-internal parallelism is bounded separately by each
	// request's parallel field.
	Workers int
	// QueueDepth is how many admitted flights may wait for a worker; a
	// full queue rejects new work with 503 (default 1024). Duplicates
	// of a queued flight attach to it and take no slot.
	QueueDepth int
	// CacheEntries bounds the result cache (0: 1024; negative disables
	// caching).
	CacheEntries int
	// JobTimeout bounds one simulation's wall clock, including its wait
	// for a worker slot: the deadline counts from admission (0 =
	// unbounded).
	JobTimeout time.Duration
	// NoObserve skips the obsv.Registry otherwise attached to every
	// timing-machine run, whose event counters fold into /metrics.
	NoObserve bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 1024
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	return c
}

// flight is one admitted simulation and every job waiting on it. Jobs
// attach when their key matches a flight that is queued or running
// (coalescing); all attached jobs complete from the one result.
type flight struct {
	spec     *Spec
	deadline time.Time // admission + JobTimeout; zero when unbounded
	jobs     []*Job    // guarded by the server mutex
	running  bool      // a worker has taken it; guarded by the server mutex
}

// Server is the simulation service: an HTTP handler plus the cache,
// flight queue, worker pool, and job store behind it.
type Server struct {
	cfg   Config
	m     *metrics
	queue chan *flight // admitted flights awaiting a worker; capacity QueueDepth bounds the backlog

	ctx    context.Context // cancelled only by a hard drain-timeout stop
	cancel context.CancelFunc
	wg     sync.WaitGroup // running workers

	mu       sync.Mutex
	draining bool // set, and queue closed, by Drain
	nextID   int
	jobs     map[string]*Job
	order    []string // job IDs in submission order
	cache    *resultCache
	inflight map[cacheKey]*flight // queued and running flights
}

// New builds a Server; call Start before serving, and Drain on the way
// out.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:      cfg,
		m:        newMetrics(),
		queue:    make(chan *flight, cfg.QueueDepth),
		ctx:      ctx,
		cancel:   cancel,
		jobs:     make(map[string]*Job),
		cache:    newResultCache(cfg.CacheEntries),
		inflight: make(map[cacheKey]*flight),
	}
}

// Start launches the worker pool. Separate from New so tests can
// assemble a server without goroutines and fill its queue first.
func (s *Server) Start() {
	s.wg.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go func() {
			defer s.wg.Done()
			for f := range s.queue {
				s.runFlight(f)
			}
		}()
	}
}

// Metrics exposes the server's metric store (tests and the /metrics
// handler).
func (s *Server) Metrics() *metrics { return s.m }

// Drain performs the graceful shutdown sequence: stop accepting
// submissions (503), then wait for the workers to finish every queued
// and running flight. If ctx expires first, in-flight work is cancelled
// hard and Drain returns ctx's error once the workers have unwound.
func (s *Server) Drain(ctx context.Context) error {
	// Admission sends on the queue under s.mu after checking draining,
	// so closing it under the same lock can never race a send.
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		s.cancel() // hard-cancel in-flight simulations
		<-finished
		return ctx.Err()
	}
}

// Handler returns the server's routed HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s.instrument(mux)
}

// instrument counts requests and 4xx responses around the mux.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.m.inc(mRequests, 1)
		cw := &codeWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(cw, r)
		if cw.code >= 400 && cw.code < 500 {
			s.m.inc(mBadRequests, 1)
		}
	})
}

type codeWriter struct {
	http.ResponseWriter
	code int
}

func (w *codeWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so SSE streaming survives the
// instrumentation layer.
func (w *codeWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// writeJSON emits v with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit is POST /api/v1/jobs: validate, then — in one critical
// section, the server's only dedup point — serve from the cache,
// coalesce onto a queued or running flight with the same key, or admit
// a new flight to the worker queue. ?wait=DURATION blocks until the
// job is terminal (or the wait expires) before responding, so simple
// clients get submit-and-result in one round trip.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	sp, err := ParseRequest(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		var he *httpError
		if errors.As(err, &he) {
			writeError(w, he.code, "%s", he.msg)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	now := time.Now()
	k := sp.Key()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.reject(w, "server is draining; not accepting new jobs")
		return
	}
	s.nextID++
	id := fmt.Sprintf("j%06d", s.nextID)
	j := newJob(id, sp, now)
	s.jobs[id] = j
	s.order = append(s.order, id)

	// Cache first: a hit completes the job with zero simulation work.
	if body, ok := s.cache.Get(k); ok {
		s.mu.Unlock()
		s.m.inc(mCacheHits, 1)
		s.m.inc(mSubmitted, 1)
		j.complete(body, nil, true, time.Now())
		s.m.inc(mJobsDone, 1)
		s.respondSubmit(w, r, j, http.StatusOK)
		return
	}
	admitted, coalesced := true, false
	if f, ok := s.inflight[k]; ok {
		// Identical work is queued or running: ride it. A job joining a
		// running flight leaves the queue the moment it arrives.
		f.jobs = append(f.jobs, j)
		j.markCoalesced()
		if f.running {
			j.markBatched(now)
		}
		coalesced = true
	} else {
		f := &flight{spec: sp, jobs: []*Job{j}}
		if s.cfg.JobTimeout > 0 {
			f.deadline = now.Add(s.cfg.JobTimeout)
		}
		select {
		case s.queue <- f:
			s.inflight[k] = f
		default:
			admitted = false
		}
	}
	s.mu.Unlock()
	s.m.inc(mCacheMisses, 1)

	if !admitted {
		j.complete(nil, fmt.Errorf("server overloaded"), false, time.Now())
		s.reject(w, "intake queue full; retry later")
		return
	}
	if coalesced {
		s.m.inc(mCoalesced, 1)
	}
	s.m.inc(mSubmitted, 1)
	s.m.gauge(mQueueDepth, int64(len(s.queue)))
	s.respondSubmit(w, r, j, http.StatusAccepted)
}

// reject answers 503 with a retry hint.
func (s *Server) reject(w http.ResponseWriter, msg string) {
	s.m.inc(mRejected, 1)
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, "%s", msg)
}

// respondSubmit renders the submit response, honoring ?wait.
func (s *Server) respondSubmit(w http.ResponseWriter, r *http.Request, j *Job, code int) {
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad wait duration %q: %v", waitStr, err)
			return
		}
		if s.awaitJob(r, j, d) && code == http.StatusAccepted {
			code = http.StatusOK
		}
	}
	writeJSON(w, code, j.View(time.Now()))
}

// awaitJob blocks until the job is terminal, the wait expires, or the
// client goes away; reports whether the job is terminal.
func (s *Server) awaitJob(r *http.Request, j *Job, d time.Duration) bool {
	const maxWait = 10 * time.Minute
	if d <= 0 || d > maxWait {
		d = maxWait
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-j.Done():
		return true
	case <-t.C:
	case <-r.Context().Done():
	}
	return false
}

// runFlight executes one flight a worker took off the queue: stamp its
// jobs as out of the queue, run the simulation as a one-job exp.Run
// (timeout classification, panic isolation), and publish the outcome.
func (s *Server) runFlight(f *flight) {
	now := time.Now()
	s.mu.Lock()
	f.running = true
	for _, j := range f.jobs {
		j.markBatched(now)
	}
	s.mu.Unlock()
	s.m.gauge(mQueueDepth, int64(len(s.queue)))

	var timeout time.Duration
	if !f.deadline.IsZero() {
		// The deadline counts from admission, so a flight that outwaited
		// it in the queue times out at once.
		timeout = max(time.Until(f.deadline), time.Nanosecond)
	}
	run := func(ctx context.Context) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, diagerr.FromContext(err)
		}
		s.mu.Lock()
		start := time.Now()
		for _, j := range f.jobs {
			j.markStarted(start)
		}
		s.mu.Unlock()
		s.m.inc(mSims, 1)
		s.m.addGauge(mInflight, 1)
		defer s.m.addGauge(mInflight, -1)

		onProgress := func(done, total int) {
			s.mu.Lock()
			js := append([]*Job(nil), f.jobs...)
			s.mu.Unlock()
			for _, j := range js {
				j.setProgress(done, total)
			}
		}
		workers := f.spec.Req.Parallel
		if workers <= 0 || workers > s.cfg.Workers {
			workers = s.cfg.Workers
		}
		body, regs, err := f.spec.execute(ctx, workers, onProgress, !s.cfg.NoObserve)
		for _, reg := range regs {
			s.m.mergeObsv(reg)
		}
		if err != nil {
			return nil, err
		}
		s.m.observe(hSimMs, int64(time.Since(start)/time.Millisecond))
		return body, nil
	}
	results, _ := exp.Run(s.ctx, []exp.Job{{Name: f.spec.Name(), Run: run}},
		exp.Options{Workers: 1, Timeout: timeout})
	body, _ := results[0].Value.([]byte)
	s.finishFlight(f, body, results[0].Err)
}

// finishFlight publishes a flight's outcome: fill the cache, retire the
// in-flight entry, and complete every attached job. Cache fill and
// in-flight removal happen under one lock acquisition, so a concurrent
// coalesce attempt either attaches before completion (and is completed
// here) or sees the cache entry — never neither.
func (s *Server) finishFlight(f *flight, body []byte, err error) {
	s.mu.Lock()
	if err == nil {
		if evicted := s.cache.Put(f.spec.Key(), body); evicted > 0 {
			s.m.inc(mCacheEvictions, uint64(evicted))
		}
	}
	delete(s.inflight, f.spec.Key())
	js := f.jobs
	f.jobs = nil
	s.m.gauge(mCacheEntries, int64(s.cache.Len()))
	s.mu.Unlock()

	now := time.Now()
	for i, j := range js {
		// The first attached job owns the simulation; the rest were
		// coalesced onto it.
		if j.complete(body, err, i > 0 && err == nil, now) {
			if err != nil {
				s.m.inc(mJobsFailed, 1)
			} else {
				s.m.inc(mJobsDone, 1)
			}
		}
		s.observeJobLatency(j, now)
	}
}

// observeJobLatency folds one finished job's stage durations into the
// latency histograms.
func (s *Server) observeJobLatency(j *Job, now time.Time) {
	v := j.View(now)
	s.m.observe(hQueuedMs, int64(v.Timings.QueuedMs))
	s.m.observe(hTotalMs, int64(v.Timings.TotalMs))
}

// handleList is GET /api/v1/jobs: every job in submission order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	s.mu.Lock()
	views := make([]View, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.jobs[id].View(now))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Jobs []View `json:"jobs"`
	}{views})
}

// lookupJob resolves {id} or writes a 404.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", id)
	}
	return j
}

// handleJob is GET /api/v1/jobs/{id}: the job view; ?wait=DURATION
// long-polls until the job is terminal.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad wait duration %q: %v", waitStr, err)
			return
		}
		s.awaitJob(r, j, d)
	}
	writeJSON(w, http.StatusOK, j.View(time.Now()))
}

// handleResult is GET /api/v1/jobs/{id}/result: the raw canonical
// result body — exactly the cached bytes, so two requests with the
// same key read byte-identical results. A pending job answers 202 with
// its view; a failed one 500 with its error.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	body, ok := j.Result()
	if !ok {
		v := j.View(time.Now())
		if v.State == StateFailed {
			writeError(w, http.StatusInternalServerError, "job %s failed: %s", v.ID, v.Error)
			return
		}
		writeJSON(w, http.StatusAccepted, v)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// handleStream is GET /api/v1/jobs/{id}/stream: a server-sent-events
// stream of the job's view, one event per observable change, ending at
// the terminal state.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	var last []byte
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		v := j.View(time.Now())
		v.Timings.Served = time.Time{} // suppress the per-render field so idle polls compare equal
		v.Timings.TotalMs = 0
		cur, _ := json.Marshal(v)
		if !jsonEqual(cur, last) {
			last = cur
			fmt.Fprintf(w, "data: %s\n\n", cur)
			fl.Flush()
		}
		if v.State == StateDone || v.State == StateFailed {
			return
		}
		select {
		case <-j.Done():
		case <-tick.C:
		case <-r.Context().Done():
			return
		}
	}
}

func jsonEqual(a, b []byte) bool { return string(a) == string(b) }

// handleMetrics is GET /metrics: Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.m.WriteProm(w)
}

// handleHealthz is GET /healthz: 200 while serving, 503 while draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ok"})
}
