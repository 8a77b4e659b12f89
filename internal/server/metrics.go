package server

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"diag/internal/obsv"
)

// Server-level metric names. The obsv.Registry underneath keeps them in
// one namespace with the merged per-run simulation metrics, which carry
// an "obsv/" prefix instead.
const (
	mRequests       = "requests_total"       // every HTTP request served
	mBadRequests    = "bad_requests_total"   // 4xx responses
	mSubmitted      = "jobs_submitted_total" // jobs accepted
	mJobsDone       = "jobs_done_total"
	mJobsFailed     = "jobs_failed_total"
	mRejected       = "jobs_rejected_total" // draining or queue-full 503s
	mCacheHits      = "cache_hits_total"
	mCacheMisses    = "cache_misses_total"
	mCacheEvictions = "cache_evictions_total"
	mCoalesced      = "coalesced_total" // jobs served by another job's simulation
	mSims           = "sims_total"      // simulations actually executed
	mCacheEntries   = "cache_entries"   // gauge
	mQueueDepth     = "queue_depth"     // gauge: flights awaiting a worker
	mInflight       = "inflight_sims"   // gauge: simulations executing right now
	hQueuedMs       = "job_queued_ms"   // submit → leaving the queue
	hSimMs          = "job_sim_ms"      // sim start → finish
	hTotalMs        = "job_total_ms"    // submit → finish
)

// metrics is the server's counter/gauge/histogram store: an
// internal/obsv Registry behind a mutex (the registry itself is
// single-goroutine by design; the server is not). Per-run simulation
// registries are merged in under "obsv/", so /metrics exposes the
// cycle-level event taxonomy of everything the server has simulated
// alongside its own serving counters.
type metrics struct {
	mu    sync.Mutex
	reg   *obsv.Registry
	start time.Time
}

func newMetrics() *metrics {
	return &metrics{reg: obsv.NewRegistry(0), start: time.Now()}
}

func (m *metrics) inc(name string, n uint64) {
	m.mu.Lock()
	m.reg.Inc(name, n)
	m.mu.Unlock()
}

func (m *metrics) gauge(name string, v int64) {
	m.mu.Lock()
	m.reg.SetGauge(name, v)
	m.mu.Unlock()
}

func (m *metrics) addGauge(name string, delta int64) {
	m.mu.Lock()
	m.reg.SetGauge(name, m.reg.Gauge(name)+delta)
	m.mu.Unlock()
}

func (m *metrics) observe(name string, v int64) {
	m.mu.Lock()
	m.reg.Observe(name, v)
	m.mu.Unlock()
}

func (m *metrics) counter(name string) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reg.Counter(name)
}

// mergeObsv folds one finished run's observability registry into the
// server's, under an "obsv/" prefix: counters accumulate, histograms
// fold bucket-wise via their digests (count/sum), and gauges keep the
// latest value. The per-run timeseries is dropped — a service metric
// endpoint wants totals, not per-cycle samples.
func (m *metrics) mergeObsv(s *obsv.Snapshot) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, v := range s.Counters {
		m.reg.Inc("obsv/"+name, v)
	}
	for name, h := range s.Hists {
		// Fold the histogram as count/sum/max observations of its own
		// digest gauges; per-bucket merge would need obsv surgery for
		// little serving value.
		m.reg.Inc("obsv/"+name+"/count", h.Count())
		m.reg.Inc("obsv/"+name+"/sum", uint64(max64(h.Sum(), 0)))
	}
	for name, v := range s.Gauges {
		m.reg.SetGauge("obsv/"+name, v)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// promName sanitizes a registry name into a Prometheus metric name:
// "diag_server_" prefix, every non-alphanumeric byte folded to '_'.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("diag_server_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WriteProm renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): counters as `counter`, gauges as `gauge`,
// and each histogram as _count/_sum/_max/_p99 gauges (the obsv
// IntervalHist is power-of-two bucketed, which Prometheus's cumulative
// buckets cannot express directly). Output is sorted by name, so
// consecutive scrapes of an idle server are byte-identical.
func (m *metrics) WriteProm(w io.Writer) error {
	m.mu.Lock()
	s := m.reg.Snapshot()
	uptime := time.Since(m.start).Seconds()
	m.mu.Unlock()

	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", p, p, s.Counters[name]); err != nil {
			return err
		}
	}

	gnames := make([]string, 0, len(s.Gauges))
	for name := range s.Gauges {
		gnames = append(gnames, name)
	}
	sort.Strings(gnames)
	for _, name := range gnames {
		p := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", p, p, s.Gauges[name]); err != nil {
			return err
		}
	}

	hnames := make([]string, 0, len(s.Hists))
	for name := range s.Hists {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := s.Hists[name]
		p := promName(name)
		if _, err := fmt.Fprintf(w,
			"# TYPE %s_count gauge\n%s_count %d\n# TYPE %s_sum gauge\n%s_sum %d\n# TYPE %s_max gauge\n%s_max %d\n# TYPE %s_p99 gauge\n%s_p99 %d\n",
			p, p, h.Count(), p, p, h.Sum(), p, p, h.Max(), p, p, h.Quantile(0.99)); err != nil {
			return err
		}
	}

	if _, err := fmt.Fprintf(w, "# TYPE diag_server_uptime_seconds gauge\ndiag_server_uptime_seconds %.3f\n", uptime); err != nil {
		return err
	}
	return nil
}
