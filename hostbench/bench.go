package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"cyclops/internal/obs"
)

// workload is one benchmark workload. measure calls setup several times
// before each pass (teardown between them), pass repeatedly for the timed
// phase, then finish for the checks that need the whole run.
type workload interface {
	// setup builds everything the next pass needs before its first timed
	// operation, timing its layer calls into p.
	setup(b *bench, p *pass) error
	// teardown releases what setup built.
	teardown() error
	// pass runs the operation set once on the last set-up, filling p.
	// Every pass runs the same operations from the same starting state,
	// so each operation's times across passes are samples of one
	// quantity.
	pass(b *bench, p *pass) error
	// finish runs the checks that need the whole run.
	finish(b *bench) error
	// concurrency is the number of operations in flight at once: 1 for
	// the workloads that run their operations one at a time.
	concurrency() int
}

var workloadMakers = map[string]func(options) workload{
	"stream-sched": newStreamSched,
	"stream-mem":   newStreamMem,
	"splash-fft":   newSplashFFT,
	"serve-mixed":  newServeMixed,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadMakers))
	for n := range workloadMakers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func newWorkload(name string, o options) (workload, error) {
	mk, ok := workloadMakers[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	return mk(o), nil
}

// op is one operation's measurement.
type op struct {
	// lat is the host seconds of the program's calls for the operation:
	// chip build, boot and run for a simulated point (the benchmark's
	// input writes and output checks excluded), the client-observed
	// round trip for a request.
	lat float64
	// sim is the host seconds inside the simulator call that produced
	// insts and cycles (Machine.Run, splash.RunFFT); serve-mixed's
	// results carry counts but no simulator time.
	sim           float64
	insts, cycles uint64
	// cached says the server answered from its cache (serve-mixed).
	cached bool
}

// pass is what one pass over a workload's operation set measured.
type pass struct {
	traced bool
	// wall is the pass's host seconds: the sum of its operations' times
	// for the one-at-a-time workloads, the elapsed time for serve-mixed.
	wall float64
	ops  []op
	// layer holds the host seconds of each timed layer call, by layer
	// call name ("sim.run", ...).
	layer map[string][]float64
	// sim sums the simulated statistics of the pass's points.
	sim simStats
	// mallocs counts heap allocations inside Machine.Run (traced passes).
	mallocs                     uint64
	blockCompiles, blockFlushes uint64
	// server holds serve-mixed's per-pass server-side metrics.
	server map[string]float64
}

func newPass(traced bool) *pass {
	return &pass{traced: traced, layer: map[string][]float64{}}
}

// bench collects one run's measurements.
type bench struct {
	opt     options
	ref     reference
	scratch string
	// tr records spans in a traced run (nil otherwise); spans count only
	// when they start inside a traced interval (set-ups and traced passes).
	tr      *obs.Tracer
	mu      sync.Mutex
	inTrace bool
	traced  [][2]time.Time
	setups  []float64
	// setupPasses holds each set-up's layer timings.
	setupPasses []*pass
	passes      []*pass
	// serial numbers the scratch directories the run creates.
	serial int
	// attempted and failed count operations; failures describes each
	// failed one.
	attempted, failed int
	failures          []string
}

// traceCapacity bounds the span ring of a traced run: a serve-mixed
// pass records about six spans per request, and the traced passes of a
// 25-second run stay below this.
const traceCapacity = 1 << 20

func newBench(o options, ref reference, scratch string) *bench {
	b := &bench{opt: o, ref: ref, scratch: scratch}
	if o.trace {
		b.tr = obs.NewTracerSeeded(traceCapacity, o.seed)
	}
	return b
}

func (b *bench) beginTraced() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tr == nil {
		return
	}
	b.inTrace = true
	b.traced = append(b.traced, [2]time.Time{time.Now(), {}})
}

func (b *bench) endTraced() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tr == nil {
		return
	}
	b.inTrace = false
	b.traced[len(b.traced)-1][1] = time.Now()
}

// span starts a root span when the run is inside a traced interval, and
// returns nil (a free no-op span) otherwise.
func (b *bench) span(name string) *obs.ActiveSpan {
	b.mu.Lock()
	on := b.inTrace
	b.mu.Unlock()
	if !on {
		return nil
	}
	return b.tr.StartTrace(name)
}

// attempt counts one operation.
func (b *bench) attempt() {
	b.mu.Lock()
	b.attempted++
	b.mu.Unlock()
}

// fail records n failed operations.
func (b *bench) fail(n int, format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed += n
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// timed runs fn as one call into a layer: it is timed into p (when p is
// not nil) under name, recorded as a child span of parent, and its host
// seconds are returned.
func timed(p *pass, parent *obs.ActiveSpan, name string, fn func() error) (float64, error) {
	sp := parent.Child(name)
	start := time.Now()
	err := fn()
	d := time.Since(start).Seconds()
	sp.End()
	if p != nil {
		p.layer[name] = append(p.layer[name], d)
	}
	return d, err
}

// rng returns the seeded generator for one stream of the workload's
// inputs; distinct streams never share values.
func (b *bench) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(b.opt.seed, stream))
}

// untracedPasses returns the passes the end-to-end metrics come from.
func (b *bench) untracedPasses() []*pass {
	var out []*pass
	for _, p := range b.passes {
		if !p.traced {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return b.passes
	}
	return out
}

// layerSum is the host seconds p spent in one layer call name.
func (p *pass) layerSum(name string) float64 {
	var t float64
	for _, d := range p.layer[name] {
		t += d
	}
	return t
}

// median and quantile work on a copy; quantile interpolates linearly
// between order statistics.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

// passQuantile is the median over the passes of each pass's quantile q
// of its operations' latencies, counting the operations keep accepts.
func passQuantile(ps []*pass, q float64, keep func(op) bool) float64 {
	var per []float64
	for _, p := range ps {
		var lat []float64
		for _, o := range p.ops {
			if keep(o) {
				lat = append(lat, o.lat)
			}
		}
		if len(lat) > 0 {
			per = append(per, quantile(lat, q))
		}
	}
	return median(per)
}
