package harts_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"diag/internal/asm"
	"diag/internal/diag"
	"diag/internal/iss"
	"diag/internal/mem"
	"diag/internal/obsv"
	"diag/internal/ooo"
)

// machine is the engine's method set as both timing machines expose it,
// plus their typed statistics behind any.
type machine interface {
	SetShards(n int)
	SetObserver(o obsv.Observer)
	SetHook(hook func(iss.Exec))
	RunUntil(ctx context.Context, limit uint64) (bool, error)
	Run() error
	Mem() *mem.Memory
}

// kinds builds a fresh 4-hart machine of each kind for img, with a
// closure returning its statistics.
var kinds = []struct {
	noun  string
	build func(img *mem.Image) (machine, func() any, error)
}{
	{"ring", func(img *mem.Image) (machine, func() any, error) {
		m, err := diag.NewMachine(diag.MultiRing(diag.F4C32(), 4, 2), img)
		if err != nil {
			return nil, nil, err
		}
		return m, func() any { return m.Stats() }, nil
	}},
	{"core", func(img *mem.Image) (machine, func() any, error) {
		m, err := ooo.NewMachine(ooo.BaselineMulticore(4), img)
		if err != nil {
			return nil, nil, err
		}
		return m, func() any { return m.Stats() }, nil
	}},
}

// sumImage is a data-parallel reduction: each hart sums its chunk of a
// 256-word array and stores the partial sum at 0x900+4*tid. The write
// sets are disjoint, the documented multi-hart contract.
func sumImage(t *testing.T) *mem.Image {
	t.Helper()
	img, err := asm.Assemble(`
	li   t0, 256
	divu t1, t0, gp
	mul  t2, t1, tp
	add  t3, t2, t1
	li   s0, 0x100000
	li   s1, 0
loop:
	slli t4, t2, 2
	add  t4, t4, s0
	lw   t5, 0(t4)
	add  s1, s1, t5
	addi t2, t2, 1
	blt  t2, t3, loop
	slli t6, tp, 2
	li   s2, 0x900
	add  s2, s2, t6
	sw   s1, 0(s2)
	ebreak
	`)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1024)
	for i := 0; i < 256; i++ {
		w := uint32(i)*3 + 1
		data[4*i], data[4*i+1], data[4*i+2], data[4*i+3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
	}
	img.Segments = append(img.Segments, mem.Segment{Addr: 0x100000, Data: data})
	return img
}

// outcome is everything observable about one run.
type outcome struct {
	stats  any
	digest uint64
	events []obsv.Event
	trace  []iss.Exec
	err    string
}

// run executes img on a fresh machine of kind k with the given shard
// count; limit > 0 pauses there first. hook also records the CPU hook
// stream.
func run(t *testing.T, k int, img *mem.Image, shards int, limit uint64, hook bool) outcome {
	t.Helper()
	m, stats, err := kinds[k].build(img)
	if err != nil {
		t.Fatal(err)
	}
	var o outcome
	buf := &obsv.Buffer{}
	m.SetObserver(buf)
	m.SetShards(shards)
	if hook {
		m.SetHook(func(ex iss.Exec) { o.trace = append(o.trace, ex) })
	}
	if limit > 0 {
		paused, err := m.RunUntil(context.Background(), limit)
		if err != nil || !paused {
			t.Fatalf("%s: RunUntil(%d) = %v, %v; want a pause", kinds[k].noun, limit, paused, err)
		}
	}
	if err := m.Run(); err != nil {
		o.err = err.Error()
	}
	o.stats, o.digest, o.events = stats(), m.Mem().Digest(), buf.Events
	return o
}

func same(t *testing.T, what string, got, want outcome) {
	t.Helper()
	if !reflect.DeepEqual(got.stats, want.stats) {
		t.Errorf("%s: stats diverge:\n got %+v\nwant %+v", what, got.stats, want.stats)
	}
	if got.digest != want.digest {
		t.Errorf("%s: memory digest %#x, want %#x", what, got.digest, want.digest)
	}
	if !reflect.DeepEqual(got.events, want.events) {
		t.Errorf("%s: observer stream diverges (%d events, want %d)", what, len(got.events), len(want.events))
	}
	if !reflect.DeepEqual(got.trace, want.trace) {
		t.Errorf("%s: hook stream diverges (%d instructions, want %d)", what, len(got.trace), len(want.trace))
	}
	if got.err != want.err {
		t.Errorf("%s: error %q, want %q", what, got.err, want.err)
	}
}

// TestEngineShardedMatchesSequential: statistics, final memory and the
// observer stream are identical at every shard count, on both machines.
func TestEngineShardedMatchesSequential(t *testing.T) {
	img := sumImage(t)
	for k, kind := range kinds {
		ref := run(t, k, img, 1, 0, false)
		if ref.err != "" || len(ref.events) == 0 {
			t.Fatalf("%s: sequential reference: err %q, %d events", kind.noun, ref.err, len(ref.events))
		}
		for _, shards := range []int{2, 3, 4, 8} {
			same(t, fmt.Sprintf("%s shards=%d", kind.noun, shards), run(t, k, img, shards, 0, false), ref)
		}
	}
}

// TestEngineErrorAttribution: the lowest failing hart wins with the
// sequential engine's error, and only the harts up to it commit their
// memory and events. Statistics are not compared: harts past the
// failing one may have run on their clones, and a failed run's
// statistics are not reported.
func TestEngineErrorAttribution(t *testing.T) {
	// Hart 2 executes an unsupported ecall; the others store a marker.
	img, err := asm.Assemble(`
	li   t1, 2
	bne  tp, t1, ok
	ecall
ok:
	slli t2, tp, 2
	li   t3, 0x900
	add  t3, t3, t2
	li   t4, 7
	sw   t4, 0(t3)
	ebreak
	`)
	if err != nil {
		t.Fatal(err)
	}
	for k, kind := range kinds {
		ref := run(t, k, img, 1, 0, false)
		if !strings.HasPrefix(ref.err, kind.noun+" 2:") {
			t.Fatalf("sequential error %q not attributed to %s 2", ref.err, kind.noun)
		}
		got := run(t, k, img, 4, 0, false)
		got.stats = ref.stats
		same(t, kind.noun+" sharded", got, ref)
	}
}

// TestEnginePauseFallsBackSequential: an instruction-limit pause can
// stop mid-hart, which the sharded path cannot honor, so RunUntil takes
// the sequential engine, and the resumed half stays on it.
func TestEnginePauseFallsBackSequential(t *testing.T) {
	img := sumImage(t)
	for k, kind := range kinds {
		ref := run(t, k, img, 1, 0, false)
		half := reflect.ValueOf(ref.stats).FieldByName("Retired").Uint() / 2
		same(t, kind.noun+" paused", run(t, k, img, 4, half, false), ref)
	}
}

// TestEngineHookFallsBackSequential: one CPU hook on every hart must
// see the machine's instructions in hart order from one goroutine, so a
// hooked machine never shards.
func TestEngineHookFallsBackSequential(t *testing.T) {
	img := sumImage(t)
	for k, kind := range kinds {
		ref := run(t, k, img, 1, 0, true)
		same(t, kind.noun+" hooked", run(t, k, img, 4, 0, true), ref)
	}
}
