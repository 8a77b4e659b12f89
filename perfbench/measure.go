package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the q-quantile (0..1) of xs by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setupRepeats is how many times each workload repeats its set-up; the
// reported setup_s is the median. Set-up takes 15–110 ms, so a short
// median would move with a single hiccup of a shared host.
const setupRepeats = 21

// timeSetup runs f setupRepeats times and returns the median seconds,
// less the share stolen over all the repetitions (unit.net; /proc/stat
// counts in 10 ms ticks, too coarse for one repetition).
func (e *env) timeSetup(f func() error) (float64, error) {
	var all unit
	clock := clockUnit()
	var ds []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	clock.stop(&all)
	e.note("setup: %d repetitions, seconds p10 %.4g, p50 %.4g, p90 %.4g; stolen share %.4g",
		len(ds), percentile(ds, 0.1), percentile(ds, 0.5), percentile(ds, 0.9), all.stolen)
	return percentile(ds, 0.5) * (1 - all.stolen), nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB, falling
// back to the Go runtime's reserved memory where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "VmHWM:") {
				fields := strings.Fields(line)
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// cpuTicks is a reading of the aggregate cpu line of /proc/stat: the
// ticks the VM's vCPUs spent busy, and the ticks they were ready to run
// but the hypervisor ran another guest instead (steal).
type cpuTicks struct{ busy, steal float64 }

func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var v [8]float64
	for i := range v {
		v[i], _ = strconv.ParseFloat(f[i+1], 64)
	}
	// user nice system idle iowait irq softirq steal
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// stolenShare is the share of the vCPU time the VM was ready to use
// between readings a and b that the hypervisor gave to other guests; 0
// where /proc/stat is unavailable or nothing ran. On a shared host this
// share moves from run to run by several percent, and no change to the
// program can move it, so the throughput metrics count a unit's wall
// seconds less this share of them.
func stolenShare(a, b cpuTicks) float64 {
	busy, steal := b.busy-a.busy, b.steal-a.steal
	return ratio(steal, busy+steal)
}

// runtimeSample is a point-in-time reading of the Go runtime's CPU and
// allocation counters.
type runtimeSample struct {
	gcCPU, totalCPU float64 // seconds
	allocBytes      uint64
}

func sampleRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[2].Value.Uint64()
	}
	return r
}

// sub returns the change in every counter since earlier.
func (r runtimeSample) sub(earlier runtimeSample) runtimeSample {
	return runtimeSample{
		gcCPU:      r.gcCPU - earlier.gcCPU,
		totalCPU:   r.totalCPU - earlier.totalCPU,
		allocBytes: r.allocBytes - earlier.allocBytes,
	}
}
