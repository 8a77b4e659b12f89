package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"diag"
	"diag/internal/server"
	"diag/internal/workloads"
)

// serve: an in-process diag-server with its default configuration
// (per-run observer on) on a loopback listener, fresh for every run,
// under open-loop Poisson arrivals from at most `workers` client
// connections. Each arrival is a repeat of an earlier key (a cache
// hit), a fresh key (a miss), or a fresh key sent twice at once (a
// coalesced duplicate). Fresh keys are unique within the run. Every
// request is timed from when it was due, so a stall also delays the
// requests queued behind it.
const (
	// serveRate is the fixed arrival rate in events per second. The
	// misses it brings (about 12/s) are about a fifth of the ~58/s miss
	// capacity measured with the default server on a 2-core host.
	serveRate        = 70.0
	serveRepeatShare = 0.83 // events that repeat an earlier key
	serveDupShare    = 0.03 // events that send a fresh key twice at once
	// serveRepeatAfter is how long a key must have been issued before a
	// repeat may reuse it, so repeats mostly find it cached.
	serveRepeatAfter = 250 * time.Millisecond
	serveWait        = "60s" // ?wait long-poll bound
)

// serveKey is one distinct job: kernel × machine × scale × threads.
type serveKey struct {
	w       string
	machine string
	scale   int
	threads int
}

func (k serveKey) String() string {
	return fmt.Sprintf("%s/%s/s%d/t%d", k.w, k.machine, k.scale, k.threads)
}

func (k serveKey) request() []byte {
	r := server.Request{Kind: server.KindRun, Workload: k.w, Scale: k.scale, Threads: k.threads, Machine: k.machine}
	if k.threads > 1 {
		if k.machine == "ooo" {
			r.Cores = k.threads
		} else {
			r.Rings = k.threads
		}
	}
	b, _ := json.Marshal(r)
	return b
}

// serveKernels are the kernels of the fresh-key pool: every kernel
// whose scale-1 run retires at most ~40k instructions, so misses are
// short jobs of similar length rather than a few long ones that would
// hold both client connections.
var serveKernels = []string{
	"backprop", "bfs", "btree", "heartwall", "hotspot", "kmeans", "lud", "nw", "pathfinder",
	"srad", "streamcluster", "lavamd", "cfd", "myocyte",
	"xz", "nab", "povray", "lbm", "imagick", "leela", "deepsjeng",
}

// serveScales are the problem sizes of the fresh-key pool.
var serveScales = []int{1}

// serveKeys is the fresh-key pool in a fixed order: every pool kernel
// on every machine that can run it.
func serveKeys() []serveKey {
	var keys []serveKey
	for _, name := range serveKernels {
		w, _ := workloads.ByName(name)
		for _, m := range []string{"iss", "I4C2", "F4C2", "F4C16", "F4C32", "ooo"} {
			if m == "I4C2" && w.FP {
				continue
			}
			for _, s := range serveScales {
				for _, t := range []int{1, 2} {
					if m == "iss" && t > 1 {
						continue
					}
					keys = append(keys, serveKey{w.Name, m, s, t})
				}
			}
		}
	}
	return keys
}

// serveGolden maps kernel/scale/threads to the checked final-memory
// digest every machine's result must report.
type serveGolden map[string]string

func goldenKey(w string, scale, threads int) string {
	return fmt.Sprintf("%s/s%d/t%d", w, scale, threads)
}

// serveSetup runs every (kernel, scale, threads) of keys once, checks
// the final memory and records its digest.
func serveSetup(keys []serveKey) (serveGolden, error) {
	g := make(serveGolden)
	for _, k := range keys {
		gk := goldenKey(k.w, k.scale, k.threads)
		if _, ok := g[gk]; ok {
			continue
		}
		w, _ := workloads.ByName(k.w)
		{
			name, threads := k.w, k.threads
			p := workloads.Params{Scale: k.scale, Threads: threads}
			img, err := w.Build(p)
			if err != nil {
				return nil, err
			}
			t := diag.ISS()
			if threads > 1 {
				t = diag.DiAG(diag.MultiRing(diag.F4C2(), threads, 2))
			}
			res, err := t.Run(img)
			if err != nil {
				return nil, fmt.Errorf("golden %s: %w", name, err)
			}
			if err := w.Check(res.Mem, p); err != nil {
				return nil, fmt.Errorf("golden %s: %w", name, err)
			}
			g[gk] = fmt.Sprintf("%016x", res.Mem.Digest())
		}
	}
	return g, nil
}

// serveEvent is one arrival: n requests for key, due at offset due.
type serveEvent struct {
	due time.Duration
	key int
	n   int
}

// serveSchedule draws the seeded open-loop schedule for a window: a
// Poisson process of the given rate conditioned on its expected event
// count, i.e. rate×seconds arrival times drawn uniformly and sorted, so
// every seed offers the same number of events.
func serveSchedule(seed int64, seconds float64, rate float64, pool int) []serveEvent {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(pool)
	times := make([]float64, int(rate*seconds))
	for i := range times {
		times[i] = rng.Float64() * seconds
	}
	sort.Float64s(times)
	next := 0
	var events []serveEvent
	var issued []serveEvent // fresh events, in due order
	for _, t := range times {
		due := time.Duration(t * float64(time.Second))
		eligible := sort.Search(len(issued), func(i int) bool { return issued[i].due > due-serveRepeatAfter })
		u := rng.Float64()
		switch {
		case (u < serveRepeatShare || next == len(perm)) && eligible > 0:
			events = append(events, serveEvent{due, issued[rng.Intn(eligible)].key, 1})
		case next < len(perm):
			ev := serveEvent{due, perm[next], 1}
			if u >= serveRepeatShare && u < serveRepeatShare+serveDupShare {
				ev.n = 2
			}
			next++
			events = append(events, ev)
			issued = append(issued, ev)
		}
	}
	return events
}

// serveOut is one completed request.
type serveOut struct {
	key  int
	due  time.Duration
	lat  time.Duration // from due to result body received
	view server.View
	body []byte
	err  error
	// cpu0 and cpu1 are /proc/stat readings taken as the request was
	// sent and as its body arrived.
	cpu0, cpu1 cpuTicks
}

// loadResult is one load run's outcome.
type loadResult struct {
	outs []serveOut
	wall time.Duration
	late []float64 // generator lateness per request, ms
	prom map[string]float64
}

// runLoad starts a fresh server, drives the schedule through it from
// e.workers client connections, scrapes /metrics, and shuts everything
// down. With a tracer, each request becomes a server.hit or server.miss
// span with the job view's stage breakdown as child spans.
func runLoad(e *env, keys []serveKey, events []serveEvent, t *tracer, parent int64) (*loadResult, error) {
	srv := server.New(server.Config{})
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln)
	}()
	tr := &http.Transport{MaxConnsPerHost: e.workers, MaxIdleConnsPerHost: e.workers}
	client := &http.Client{Transport: tr}
	base := "http://" + ln.Addr().String()

	type req struct {
		key int
		due time.Duration
	}
	total := 0
	for _, ev := range events {
		total += ev.n
	}
	queue := make(chan req, total)
	res := &loadResult{outs: make([]serveOut, 0, total)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < e.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range queue {
				cpu0 := readCPUTicks()
				out := doRequest(client, base, keys[r.key].request())
				out.key, out.due = r.key, r.due
				end := time.Now()
				out.cpu0, out.cpu1 = cpu0, readCPUTicks()
				out.lat = end.Sub(start.Add(r.due))
				if t != nil && out.err == nil {
					traceRequest(t, parent, out.view, start.Add(r.due), end)
				}
				mu.Lock()
				res.outs = append(res.outs, out)
				mu.Unlock()
			}
		}()
	}
	for _, ev := range events {
		if d := time.Until(start.Add(ev.due)); d > 0 {
			time.Sleep(d)
		}
		late := ms(time.Since(start) - ev.due)
		for i := 0; i < ev.n; i++ {
			queue <- req{ev.key, ev.due}
			res.late = append(res.late, late)
		}
	}
	close(queue)
	wg.Wait()
	res.wall = time.Since(start)
	res.prom, err = scrapeMetrics(client, base)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	hs.Shutdown(ctx)
	<-served
	srv.Drain(ctx)
	tr.CloseIdleConnections()
	return res, err
}

// doRequest submits one job with ?wait and fetches its result body.
func doRequest(c *http.Client, base string, body []byte) serveOut {
	var out serveOut
	resp, err := c.Post(base+"/api/v1/jobs?wait="+serveWait, "application/json", bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	if err == nil {
		err = json.Unmarshal(b, &out.view)
	}
	if err == nil && (out.view.State != server.StateDone || out.view.ResultURL == "") {
		err = fmt.Errorf("job %s ended %s: %s", out.view.ID, out.view.State, out.view.Error)
	}
	if err != nil {
		out.err = err
		return out
	}
	resp, err = c.Get(base + out.view.ResultURL)
	if err != nil {
		out.err = err
		return out
	}
	out.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("result: HTTP %d", resp.StatusCode)
	}
	out.err = err
	return out
}

// traceRequest records a request span and, for misses, the job view's
// submitted → batched → started → finished → served stages under it.
func traceRequest(t *tracer, parent int64, v server.View, due, end time.Time) {
	name := "server.miss"
	if v.Cached && !v.Coalesced {
		name = "server.hit"
	}
	id := t.add(name, parent, v.ID, due, end)
	if name == "server.hit" {
		return
	}
	tm := v.Timings
	if tm.Batched != nil {
		t.add("server.queue", id, v.ID, tm.Submitted, *tm.Batched)
		if tm.Started != nil {
			t.add("server.batch_wait", id, v.ID, *tm.Batched, *tm.Started)
		}
	}
	if tm.Started != nil && tm.Finished != nil {
		t.add("server.sim", id, v.ID, *tm.Started, *tm.Finished)
	}
	if tm.Finished != nil {
		t.add("server.respond", id, v.ID, *tm.Finished, tm.Served)
	}
}

// scrapeMetrics reads the server's /metrics into name → value.
func scrapeMetrics(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// isHit reports whether the server answered from its result cache.
func isHit(v server.View) bool { return v.Cached && !v.Coalesced }

// isMiss reports whether the request ran its own simulation (neither a
// cache hit nor a duplicate coalesced onto another's).
func isMiss(v server.View) bool { return !v.Cached && !v.Coalesced }

// checkLoad checks every response: no error, every body for one key
// identical, and each result's memory digest equal to the checked
// golden run's. The sorted key → body list feeds the sim_digest. It
// returns each checked key's retired-instruction count.
func checkLoad(e *env, keys []serveKey, golden serveGolden, res *loadResult, digest bool) (retired map[int]uint64) {
	retired = make(map[int]uint64)
	bodies := make(map[int][]byte)
	for i := range res.outs {
		o := &res.outs[i]
		if o.err == nil && e.corruptOnce() {
			o.body = append([]byte("corrupted "), o.body...)
		}
		if o.err != nil {
			e.op(fmt.Errorf("%s: %w", keys[o.key], o.err))
			continue
		}
		if first, ok := bodies[o.key]; ok {
			if !bytes.Equal(first, o.body) {
				e.op(fmt.Errorf("%s: result body differs between requests", keys[o.key]))
				continue
			}
			e.op(nil)
			continue
		}
		bodies[o.key] = o.body
		var r struct {
			Retired   uint64 `json:"retired"`
			MemDigest string `json:"mem_digest"`
		}
		err := json.Unmarshal(o.body, &r)
		k := keys[o.key]
		if want := golden[goldenKey(k.w, k.scale, k.threads)]; err == nil && r.MemDigest != want {
			err = fmt.Errorf("%s: memory digest %s, golden %s", k, r.MemDigest, want)
		}
		if e.op(err) {
			retired[o.key] = r.Retired
		}
	}
	if digest {
		var ks []int
		for k := range bodies {
			ks = append(ks, k)
		}
		sort.Slice(ks, func(i, j int) bool { return keys[ks[i]].String() < keys[ks[j]].String() })
		for _, k := range ks {
			e.addDigest(keys[k].String(), string(bodies[k]))
		}
	}
	return retired
}

func serveSeconds(e *env) float64 {
	if e.opt.tiny {
		return 1
	}
	return e.opt.seconds
}

func runServe(e *env) error {
	keys := serveKeys()
	var golden serveGolden
	setup, err := e.timeSetup(func() error {
		var err error
		golden, err = serveSetup(keys)
		if err != nil {
			return err
		}
		// Bring a server up and down, as the measured run does.
		_, err = runLoad(e, keys, nil, nil, 0)
		return err
	})
	if err != nil {
		return err
	}
	events := serveSchedule(e.opt.seed, serveSeconds(e), serveRate, len(keys))
	res, err := runLoad(e, keys, events, nil, 0)
	if err != nil {
		return err
	}
	retired := checkLoad(e, keys, golden, res, true)
	var all, hit, coalesced, miss []float64
	var simRetired, simSecs float64
	var missCPU0, missCPU1 cpuTicks // summed over the misses
	for _, o := range res.outs {
		all = append(all, ms(o.lat))
		switch {
		case isHit(o.view):
			hit = append(hit, ms(o.lat))
		case isMiss(o.view):
			miss = append(miss, ms(o.lat))
			if tm := o.view.Timings; o.err == nil && tm.Started != nil && tm.Finished != nil {
				simRetired += float64(retired[o.key])
				simSecs += tm.Finished.Sub(*tm.Started).Seconds()
				missCPU0.busy, missCPU0.steal = missCPU0.busy+o.cpu0.busy, missCPU0.steal+o.cpu0.steal
				missCPU1.busy, missCPU1.steal = missCPU1.busy+o.cpu1.busy, missCPU1.steal+o.cpu1.steal
			}
		default:
			coalesced = append(coalesced, ms(o.lat))
		}
	}
	e.note("serve: %d requests: %d cache hits (p50 %.3f ms, p99 %.3f ms), %d coalesced (p50 %.3f ms), %d misses",
		len(all), len(hit), percentile(hit, 0.5), percentile(hit, 0.99), len(coalesced), percentile(coalesced, 0.5), len(miss))
	e.note("serve generator lateness: p50 %.3f ms, p99 %.3f ms, max %.3f ms",
		percentile(res.late, 0.5), percentile(res.late, 0.99), percentile(res.late, 1))
	e.setEndToEnd(setup, []unit{{ops: len(res.outs), retired: simRetired, secs: res.wall.Seconds()}}, quantiles(all), quantiles(miss))
	// The offered load fixes the request rate, so sim_mips is what the
	// server sets: the misses' retired instructions over the summed
	// started → finished time of their simulations (the job view's
	// stages), which moves with the simulation path, the per-run
	// observer included, and not with the cache-hit path. Those seconds
	// count net of the share stolen while the misses were in flight,
	// which leaves out most of the steal charged to idle vCPUs as they
	// wake between requests: the window is mostly idle, and its own
	// share would move with how busy the hit path keeps the vCPUs.
	stolen := stolenShare(missCPU0, missCPU1)
	e.set("sim_mips", ratio(simRetired, simSecs*(1-stolen))/1e6)
	e.note("serve: misses' simulation %.4g s, stolen share in flight %.4g; %.4g MIPS before steal",
		simSecs, stolen, ratio(simRetired, simSecs)/1e6)
	return nil
}

// setServerMetrics sets the server.* counters from a /metrics scrape.
func setServerMetrics(e *env, prom map[string]float64) {
	hits, misses := prom["diag_server_cache_hits_total"], prom["diag_server_cache_misses_total"]
	e.set("server.cache_hit_ratio", ratio(hits, hits+misses))
	e.set("server.coalesced", prom["diag_server_coalesced_total"])
	e.set("server.sims", prom["diag_server_sims_total"])
	e.set("server.batch_size_mean", ratio(prom["diag_server_batch_size_sum"], prom["diag_server_batch_size_count"]))
}

// tracedServe runs half a window untraced and half traced, each on a
// fresh server with the same schedule, then the layer probe without its
// server part.
func tracedServe(e *env) error {
	keys := serveKeys()
	golden, err := serveSetup(keys)
	if err != nil {
		return err
	}
	events := serveSchedule(e.opt.seed, serveSeconds(e)/2, serveRate, len(keys))
	untraced, err := runLoad(e, keys, events, nil, 0)
	if err != nil {
		return err
	}
	checkLoad(e, keys, golden, untraced, true)
	e.tr.startUnit()
	root := e.tr.begin("bench.load", 0, "")
	traced, err := runLoad(e, keys, events, e.tr, root.id())
	root.end(0)
	if err != nil {
		return err
	}
	e.tr.endUnit(len(traced.outs))
	checkLoad(e, keys, golden, traced, false)
	setServerMetrics(e, traced.prom)
	p50 := func(r *loadResult) float64 {
		var all []float64
		for _, o := range r.outs {
			all = append(all, ms(o.lat))
		}
		return percentile(all, 0.5)
	}
	u, tr := p50(untraced), p50(traced)
	e.set("trace.overhead_ms", tr-u)
	e.set("trace.overhead_frac", ratio(tr-u, u))
	w, _ := workloads.ByName(keys[rand.New(rand.NewSource(e.opt.seed)).Intn(len(keys))].w)
	return probeLayers(context.Background(), e, w, false)
}

// probeServer is the layer probe's server part: a fresh server gets a
// miss, a repeat of it, and two simultaneous requests for another key.
func probeServer(e *env, parent int64, w workloads.Workload) error {
	keys := []serveKey{{w.Name, "F4C2", 1, 1}, {w.Name, "ooo", 1, 1}}
	golden, err := serveSetup(keys)
	if err != nil {
		return err
	}
	events := []serveEvent{{0, 0, 1}, {100 * time.Millisecond, 0, 1}, {200 * time.Millisecond, 1, 2}}
	res, err := runLoad(e, keys, events, e.tr, parent)
	if !e.op(err) {
		return nil
	}
	checkLoad(e, keys, golden, res, false)
	setServerMetrics(e, res.prom)
	return nil
}
