package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one request share Req; Parent
// is the enclosing span's ID (0 = none). Work is the call's unit count
// (retired instructions for runs, bytes for encodes), 0 when none.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Req    string        `json:"req,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Work   uint64        `json:"work,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer is the span name's prefix: "diag.run" belongs to "diag".
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps every span in memory until the run ends, plus named
// counters measured at the same call sites.
type tracer struct {
	t0 time.Time

	// section is the runtime counters at the start of the traced
	// section: the workload's traced unit, then the layer probe. unit is
	// their change over the traced unit alone, which ran jobs jobs.
	section runtimeSample
	unit    runtimeSample
	jobs    int

	mu       sync.Mutex
	next     int64
	spans    []span
	counters map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counters: make(map[string]float64)}
}

// startUnit opens the traced section with the workload's traced unit.
// Set-up and the untraced repetitions run before it, so a collection
// here keeps their garbage and GC time out of the unit's figures (the
// runtime's CPU counters are only refreshed by a collection).
func (t *tracer) startUnit() {
	runtime.GC()
	t.section = sampleRuntime()
}

// endUnit closes the workload's traced unit, which ran jobs jobs.
func (t *tracer) endUnit(jobs int) {
	runtime.GC()
	t.unit = sampleRuntime().sub(t.section)
	t.jobs = jobs
}

// active is an open span; end closes and records it.
type active struct {
	t *tracer
	s span
}

// begin opens a span named name under parent (0 = root) for request req.
func (t *tracer) begin(name string, parent int64, req string) *active {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &active{t: t, s: span{ID: id, Parent: parent, Name: name, Req: req, Start: time.Since(t.t0)}}
}

func (a *active) id() int64 { return a.s.ID }

// end closes the span with its work count.
func (a *active) end(work uint64) {
	a.s.End = time.Since(a.t.t0)
	a.s.Work = work
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
}

// add records a span reconstructed from timestamps (server stages) and
// returns its ID.
func (t *tracer) add(name string, parent int64, req string, start, end time.Time) int64 {
	if end.Before(start) {
		end = start
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return t.next
}

// timed runs f inside a span and returns f's error; f returns its work.
func (t *tracer) timed(name string, parent int64, req string, f func() (uint64, error)) error {
	a := t.begin(name, parent, req)
	work, err := f()
	a.end(work)
	return err
}

// warmTime runs f twice, the first time to warm the heap and host
// caches, and returns the second run's duration: the untraced time the
// tracing overhead is measured against.
func warmTime(f func()) time.Duration {
	f()
	t0 := time.Now()
	f()
	return time.Since(t0)
}

func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

// durations returns the durations in ms of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// perWork returns Σ duration (ns) / Σ work over spans named name.
func (t *tracer) perWork(name string) (float64, bool) {
	var d time.Duration
	var w uint64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
			w += s.Work
		}
	}
	return ratio(float64(d), float64(w)), w > 0
}

// selfTimes returns each layer's self time — span durations minus the
// part of each span's interval its child spans cover — with the runtime
// layer's being gcCPU, the garbage collector's CPU seconds, and their
// total.
func (t *tracer) selfTimes(gcCPU float64) (map[string]time.Duration, time.Duration) {
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]time.Duration{"runtime": time.Duration(gcCPU * float64(time.Second))}
	for _, s := range t.spans {
		self[s.layer()] += s.dur() - covered(s, children[s.ID])
	}
	var total time.Duration
	for _, d := range self {
		total += d
	}
	return self, total
}

// covered is the length of the union of kids' intervals within p.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// selfTable renders the per-layer self-time table; the runtime row is
// the garbage collector's CPU time over the traced section, and the
// bench row the benchmark's own time between layer calls.
func (t *tracer) selfTable(gcCPU float64) string {
	self, total := t.selfTimes(gcCPU)
	n := make(map[string]int)
	busy := make(map[string]time.Duration)
	for _, s := range t.spans {
		n[s.layer()]++
		busy[s.layer()] += s.dur()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "layer       spans     busy_ms     self_ms  self_share\n")
	for _, l := range append(layers, "bench") {
		fmt.Fprintf(&b, "%-10s %6d %11.1f %11.1f %10.1f%%\n", l, n[l], ms(busy[l]), ms(self[l]),
			100*ratio(float64(self[l]), float64(total)))
	}
	return b.String()
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanQuantiles are the per-layer metrics that are a quantile of one
// span name's durations, scaled from ms to the metric's unit.
var spanQuantiles = []struct {
	metric, span string
	q, scale     float64
}{
	{"diag.new_ms", "diag.new", 0.5, 1},
	{"ooo.new_ms", "ooo.new", 0.5, 1},
	{"cache.new_ms", "cache.new", 0.5, 1},
	{"mem.load_ms", "mem.load", 0.5, 1},
	{"server.batch_wait_ms_p50", "server.batch_wait", 0.5, 1},
	{"server.queue_ms_p50", "server.queue", 0.5, 1},
	{"server.sim_ms_p50", "server.sim", 0.5, 1},
	{"server.respond_ms_p50", "server.respond", 0.5, 1},
	{"server.hit_ms_p50", "server.hit", 0.5, 1},
	{"server.hit_ms_p99", "server.hit", 0.99, 1},
	{"server.miss_ms_p50", "server.miss", 0.5, 1},
	{"server.miss_ms_p90", "server.miss", 0.9, 1},
	{"snap.checkpoint_ms", "snap.checkpoint", 0.5, 1},
	{"snap.encode_ms", "snap.encode", 0.5, 1},
	{"snap.decode_ms", "snap.decode", 0.5, 1},
	{"snap.restore_ms", "snap.restore", 0.5, 1},
	{"journal.append_us_p50", "journal.append", 0.5, 1000},
	{"journal.append_us_p99", "journal.append", 0.99, 1000},
	{"exp.job_ms_p50", "exp.job", 0.5, 1},
	{"exp.job_ms_p99", "exp.job", 0.99, 1},
	{"explore.plan_ms", "explore.plan", 0.5, 1},
	{"power.energy_us", "power.energy", 0.5, 1000},
	{"workloads.build_ms", "workloads.build", 0.5, 1},
	{"workloads.check_ms", "workloads.check", 0.5, 1},
}

// layerMetrics derives the per-layer metrics from the recorded spans
// and counters. Metrics a workload sets directly (server counters,
// simulated counts, tracing overhead) are left as set.
func (e *env) layerMetrics() {
	t := e.tr
	runtime.GC()
	gcCPU := sampleRuntime().sub(t.section).gcCPU
	e.gcCPU = gcCPU
	e.set("runtime.gc_cpu_frac", ratio(t.unit.gcCPU, t.unit.totalCPU))
	e.set("runtime.alloc_mb_per_job", ratio(float64(t.unit.allocBytes)/1e6, float64(t.jobs)))

	for _, m := range spanQuantiles {
		if ds := t.durations(m.span); len(ds) > 0 {
			e.set(m.metric, m.scale*percentile(ds, m.q))
		}
	}
	for _, run := range []string{"diag.run", "ooo.run", "iss.run", "obsv.run"} {
		if v, ok := t.perWork(run); ok {
			e.set(run+"_ns_per_inst", v)
		}
	}
	var encoded []float64
	for _, s := range t.spans {
		if s.Name == "snap.encode" {
			encoded = append(encoded, float64(s.Work))
		}
	}
	if len(encoded) > 0 {
		e.set("snap.bytes", percentile(encoded, 0.5))
	}
	c := t.counters
	e.set("iss.sb_hit_rate", ratio(c["iss.sb_hits"], c["iss.sb_hits"]+c["iss.sb_misses"]))
	e.set("fault.hang_ratio", ratio(c["fault.hangs"], c["fault.trials"]))
	e.set("journal.bytes", c["journal.bytes"])
	e.set("exp.worker_util", ratio(c["exp.busy_s"], c["exp.wall_s"]*float64(e.batch)))

	self, total := t.selfTimes(gcCPU)
	for _, l := range layers {
		e.set("self_frac."+l, ratio(float64(self[l]), float64(total)))
	}
}
