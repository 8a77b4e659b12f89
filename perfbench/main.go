// Command perfbench is the repository's workflow benchmark: it runs the
// simulator's real workflows (design-space exploration, long
// simulations, fault campaigns and the simulation service) through
// their public entry points, checks every output, and prints each
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload sim-long --seed 3 --seconds 12 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// is a separate run that records spans around the calls into each layer
// and reports the per-layer metrics instead. See README.md for the
// metric definitions and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"sim_mips", "MIPS"},
	{"peak_rss_mb", "MB"},
	{"op_ms_p50", "ms"},
}

// layers are the span-name prefixes of the traced run, in table order.
var layers = []string{"workloads", "diag", "ooo", "iss", "cache", "mem", "power",
	"explore", "exp", "snap", "fault", "journal", "obsv", "server", "runtime"}

// perLayer are the metrics a --trace 1 run reports, on every workload.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"diag.new_ms", "ms"}, {"ooo.new_ms", "ms"}, {"cache.new_ms", "ms"}, {"mem.load_ms", "ms"},
		{"runtime.alloc_mb_per_job", "MB"}, {"runtime.gc_cpu_frac", "ratio"},
		{"diag.run_ns_per_inst", "ns"}, {"ooo.run_ns_per_inst", "ns"}, {"iss.run_ns_per_inst", "ns"},
		{"iss.sb_hit_rate", "ratio"}, {"obsv.run_ns_per_inst", "ns"},
		{"server.batch_wait_ms_p50", "ms"}, {"server.queue_ms_p50", "ms"}, {"server.sim_ms_p50", "ms"},
		{"server.respond_ms_p50", "ms"}, {"server.hit_ms_p50", "ms"}, {"server.hit_ms_p99", "ms"},
		{"server.miss_ms_p50", "ms"}, {"server.miss_ms_p90", "ms"},
		{"server.cache_hit_ratio", "ratio"}, {"server.coalesced", "count"}, {"server.sims", "count"},
		{"server.batch_size_mean", "count"},
		{"snap.checkpoint_ms", "ms"}, {"snap.encode_ms", "ms"}, {"snap.decode_ms", "ms"},
		{"snap.restore_ms", "ms"}, {"snap.bytes", "bytes"},
		{"journal.append_us_p50", "us"}, {"journal.append_us_p99", "us"}, {"journal.bytes", "bytes"},
		{"fault.hang_ratio", "ratio"},
		{"exp.job_ms_p50", "ms"}, {"exp.job_ms_p99", "ms"}, {"exp.worker_util", "ratio"},
		{"explore.plan_ms", "ms"}, {"power.energy_us", "us"}, {"workloads.build_ms", "ms"},
		{"workloads.check_ms", "ms"},
		{"sim.cycles", "count"}, {"sim.retired", "count"}, {"sim.ipc", "ratio"},
		{"cache.l1d_miss_rate", "ratio"}, {"cache.l2_miss_rate", "ratio"},
		{"fail_ratio", "ratio"}, {"trace.overhead_ms", "ms"}, {"trace.overhead_frac", "ratio"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{"self_frac." + l, "ratio"})
	}
	return defs
}()

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to a smoke-test size (self-test).
	tiny bool
	// corrupt deliberately damages one output before it is checked, to
	// prove the checks trip (self-test).
	corrupt bool
	// out is where the traced run writes its spans ("" = nowhere).
	out string
}

// env is the state one workload run reports into.
type env struct {
	opt     options
	workers int // client connections and shards: num_cpu
	// batch is the worker count of the closed batches (explore, the
	// fault campaigns, the probe's exp runs): num_cpu − 1, at least 1.
	// With every vCPU busy on a batch, the Go runtime's GC workers and
	// the rest of the VM preempt the batch's workers, and the batches'
	// throughput spread between runs rose by half or more.
	batch int
	tmp   string // scratch directory for journals, removed at exit
	tr    *tracer

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	metrics   map[string]float64
	digest    hash.Hash64
	notes     []string // extra human-readable lines (lateness, ...)
	gcCPU     float64  // GC CPU seconds over the traced section
	corrupted bool
}

func newEnv(opt options) (*env, error) {
	base := opt.out
	if base == "" {
		base = os.TempDir()
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	e := &env{
		opt:     opt,
		workers: runtime.NumCPU(),
		batch:   max(1, runtime.NumCPU()-1),
		tmp:     tmp,
		metrics: make(map[string]float64),
		digest:  fnv.New64a(),
	}
	if opt.trace {
		e.tr = newTracer()
	}
	return e, nil
}

// op records one attempted operation; a non-nil err marks it failed.
func (e *env) op(err error) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attempted++
	if err != nil {
		e.failed++
		if len(e.failures) < 10 {
			e.failures = append(e.failures, err.Error())
		}
		return false
	}
	return true
}

// ops records n attempted operations, failedN of them failed by err.
func (e *env) ops(n, failedN int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attempted += n
	e.failed += failedN
	if err != nil && failedN > 0 && len(e.failures) < 10 {
		e.failures = append(e.failures, err.Error())
	}
}

// corruptOnce reports true exactly once per run when the self-test asks
// for a damaged output.
func (e *env) corruptOnce() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.opt.corrupt || e.corrupted {
		return false
	}
	e.corrupted = true
	return true
}

// addDigest folds deterministic output into the workload's sim_digest.
func (e *env) addDigest(parts ...string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, p := range parts {
		e.digest.Write([]byte(p))
		e.digest.Write([]byte{0})
	}
}

func (e *env) set(name string, v float64) { e.metrics[name] = v }

func (e *env) note(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

// unit is one cycle or round of a measured window: the operations it
// completed, the simulated instructions they retired, its seconds, and
// the share of the VM's runnable vCPU time stolen over it.
type unit struct {
	ops     int
	retired float64
	secs    float64
	stolen  float64
}

// net returns the unit's seconds less the share stolen from it.
func (u unit) net() float64 { return u.secs * (1 - u.stolen) }

// unitClock times one unit of a measured window.
type unitClock struct {
	t0 time.Time
	c0 cpuTicks
}

func clockUnit() unitClock { return unitClock{time.Now(), readCPUTicks()} }

// stop sets u's seconds and stolen share since the clock started.
func (c unitClock) stop(u *unit) {
	u.secs = time.Since(c.t0).Seconds()
	u.stolen = stolenShare(c.c0, readCPUTicks())
}

// setEndToEnd sets the end-to-end metrics of a measured window: the
// set-up time, the median over the window's units of operations and
// simulated instructions per second of their net seconds (see
// stolenShare), and the median latency (ms) of every operation, which
// the closed workloads also count net of their unit's stolen share. It prints the latency quantiles of every operation
// (op) and of those that ran their own simulation (miss; only serve
// answers some operations without one) without reporting them as
// metrics: on a shared 2-vCPU host their run-to-run spread exceeds the
// largest usable bound.
func (e *env) setEndToEnd(setup float64, units []unit, op, miss func(q float64) float64) {
	var jobs, mips, wall, stolen []float64
	ops := 0
	for _, u := range units {
		jobs = append(jobs, float64(u.ops)/u.net())
		mips = append(mips, u.retired/u.net()/1e6)
		wall = append(wall, float64(u.ops)/u.secs)
		stolen = append(stolen, u.stolen)
		ops += u.ops
	}
	e.set("setup_s", setup)
	e.set("jobs_per_s", percentile(jobs, 0.5))
	e.set("sim_mips", percentile(mips, 0.5))
	e.set("op_ms_p50", op(0.5))
	e.note("units: operations/s per unit %s; per wall second %s; stolen share %s",
		fmtFloats(jobs), fmtFloats(wall), fmtFloats(stolen))
	e.note("latency: %d operations in %d units; op p50 %.3f ms, p90 %.3f ms, p99 %.3f ms; miss p50 %.3f ms, p90 %.3f ms, p99 %.3f ms",
		ops, len(units), op(0.5), op(0.9), op(0.99), miss(0.5), miss(0.9), miss(0.99))
}

// fmtFloats renders xs with four significant digits.
func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// quantiles returns q → percentile(xs, q).
func quantiles(xs []float64) func(q float64) float64 {
	return func(q float64) float64 { return percentile(xs, q) }
}

// deadline reports whether the measured window is over: whether a
// further unit as long as the last one (seconds) would end more than
// half a unit past the window. Windows of whole units then end within
// half a unit of --seconds, on either side.
func (e *env) deadline(start time.Time, last float64) bool {
	return time.Since(start).Seconds()+last/2 >= e.opt.seconds
}

// workload is one named benchmark workload.
type workload struct {
	name string
	// run measures the end-to-end metrics (tracing off).
	run func(e *env) error
	// traced records spans around the layer calls of the same work.
	traced func(e *env) error
}

var workloadList = []workload{
	{"explore-short", runExplore, tracedExplore},
	{"sim-long", runSimLong, tracedSimLong},
	{"fault-campaign", runFault, tracedFault},
	{"serve", runServe, tracedServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload executes one workload run and assembles its result. The
// error is reserved for runs that could not be carried out at all;
// failed checks land in the result.
func runWorkload(opt options) (*result, *env, error) {
	w, ok := findWorkload(opt.workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	e, err := newEnv(opt)
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(e.tmp)
	if opt.trace {
		err = w.traced(e)
	} else {
		err = w.run(e)
	}
	if err != nil {
		return nil, e, err
	}
	defs := endToEnd
	if opt.trace {
		e.set("fail_ratio", ratio(float64(e.failed), float64(e.attempted)))
		e.layerMetrics()
		defs = perLayer
	} else {
		e.set("peak_rss_mb", peakRSSMB())
	}
	res := &result{
		Correct:   e.failed == 0 && e.attempted > 0,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := e.metrics[d.name]
		if !ok {
			return nil, e, fmt.Errorf("workload %s did not produce metric %s", w.name, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, e, nil
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload to run: explore-short, sim-long, fault-campaign or serve")
	flag.Int64Var(&opt.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&opt.seconds, "seconds", 12, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.BoolVar(&opt.tiny, "tiny", false, "smoke-test size")
	flag.BoolVar(&opt.corrupt, "corrupt", false, "damage one output before checking it (self-test)")
	flag.Parse()
	opt.trace = trace == 1
	opt.out = os.Getenv("PERFBENCH_OUT")

	res, e, err := runWorkload(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	printHuman(opt, e, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printHuman writes the readable report that precedes the JSON line.
func printHuman(opt options, e *env, res *result) {
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%v num_cpu=%d gomaxprocs=%d go=%s workers=%d batch_workers=%d\n",
		opt.workload, opt.seed, opt.seconds, opt.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), e.workers, e.batch)
	fmt.Println("model: unvalidated against hardware; modelled caches start cold on every run")
	for _, n := range e.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("metric %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if e.tr != nil {
		fmt.Print(e.tr.selfTable(e.gcCPU))
		if opt.out != "" {
			path := filepath.Join(opt.out, fmt.Sprintf("spans-%s-seed%d.jsonl", opt.workload, opt.seed))
			if err := e.tr.write(path); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			} else {
				fmt.Println("spans written to", path)
			}
		}
	}
	for _, f := range e.failures {
		fmt.Println("FAILED:", strings.ReplaceAll(f, "\n", " "))
	}
	fmt.Printf("sim_digest %s %016x\n", opt.workload, e.digest.Sum64())
	fmt.Printf("checks attempted=%d failed=%d fail_ratio=%.6f\n", res.Attempted, res.Failed,
		ratio(float64(res.Failed), float64(res.Attempted)))
}
