package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"strings"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
	"cyclops/internal/kernel"
	"cyclops/internal/obs"
	"cyclops/internal/stream"
)

// streamPoint is one STREAM simulation: the unit of work of stream-sched
// and stream-mem.
type streamPoint struct {
	id string
	p  stream.Params
}

func newStreamPoint(p stream.Params) streamPoint {
	shape := "blocked"
	if p.Independent {
		shape = "indep"
	}
	id := fmt.Sprintf("stream/%s/t%d/n%d/reps%d/%s", shape, p.Threads, p.N, p.Reps, strings.ToLower(p.Kernel.String()))
	return streamPoint{id: id, p: p}
}

// streamKernels is the four STREAM kernels in the figures' column order.
var streamKernels = []stream.Kernel{stream.Copy, stream.Scale, stream.Add, stream.Triad}

// schedPoints are stream-sched's points: the small-scale rows of fig4b
// (126 independent STREAMs) and fig5a (one STREAM blocked over 126
// threads), 104 to 1000 elements per thread, every kernel. About 95% of
// a figure sweep's scheduler iterations look like these: many units
// issuing in the same cycle.
func schedPoints(tiny bool) []streamPoint {
	const threads = 126
	if tiny {
		return []streamPoint{newStreamPoint(stream.Params{Kernel: stream.Copy, Threads: threads, N: 104 * threads, Reps: 2})}
	}
	var pts []streamPoint
	for _, n := range []int{112, 400, 1000} {
		for _, k := range streamKernels {
			pts = append(pts, newStreamPoint(stream.Params{Kernel: k, Threads: threads, N: n, Independent: true, Reps: 2}))
		}
	}
	for _, n := range []int{104, 400, 1000} {
		for _, k := range streamKernels {
			pts = append(pts, newStreamPoint(stream.Params{Kernel: k, Threads: threads, N: n * threads, Reps: 2}))
		}
	}
	return pts
}

// memPoints are stream-mem's points: fig4a's single-thread out-of-cache
// rows, every kernel. One unit runs, so the scheduler drops out and the
// time goes to block dispatch and the cache and memory model.
func memPoints(tiny bool) []streamPoint {
	sizes := []int{131072, 252000}
	kernels := streamKernels
	if tiny {
		sizes, kernels = sizes[:1], kernels[:1]
	}
	var pts []streamPoint
	for _, n := range sizes {
		for _, k := range kernels {
			pts = append(pts, newStreamPoint(stream.Params{Kernel: k, Threads: 1, N: n, Reps: 2}))
		}
	}
	return pts
}

// streamWorkload runs its points one at a time, each on a fresh chip,
// in a seeded order per pass.
type streamWorkload struct {
	points []streamPoint
	progs  []*asm.Program // assembled by setup, indexed like points
	// inputs holds each vector length's seeded a, b and c values.
	inputs map[int][]float64
}

func newStreamSched(o options) workload {
	return &streamWorkload{points: schedPoints(o.tiny), inputs: map[int][]float64{}}
}

func newStreamMem(o options) workload {
	return &streamWorkload{points: memPoints(o.tiny), inputs: map[int][]float64{}}
}

func (w *streamWorkload) concurrency() int { return 1 }

// setup generates and assembles every point's program.
func (w *streamWorkload) setup(b *bench, p *pass) error {
	root := b.span("bench.setup")
	defer root.End()
	w.progs = make([]*asm.Program, len(w.points))
	for i, pt := range w.points {
		var src string
		if _, err := timed(p, root, "stream.generate", func() (err error) {
			src, err = stream.Generate(pt.p)
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", pt.id, err)
		}
		if _, err := timed(p, root, "asm.assemble", func() (err error) {
			w.progs[i], err = asm.Assemble(src)
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", pt.id, err)
		}
	}
	return nil
}

func (w *streamWorkload) teardown() error {
	w.progs = nil
	return nil
}

func (w *streamWorkload) finish(b *bench) error { return nil }

func (w *streamWorkload) pass(b *bench, p *pass) error {
	order := b.rng(uint64(len(b.passes))).Perm(len(w.points))
	for _, i := range order {
		w.runPoint(b, p, i)
	}
	for _, o := range p.ops {
		p.wall += o.lat
	}
	return nil
}

// runPoint simulates one point and checks it.
func (w *streamWorkload) runPoint(b *bench, p *pass, i int) {
	pt := w.points[i]
	root := b.span("bench.point").Attr("point", pt.id)
	defer root.End()
	b.attempt()
	in := w.input(b, pt.p)
	st, chip, err := simulateStream(pt, w.progs[i], in, p, root)
	if err != nil {
		b.fail(1, "%s: %v", pt.id, err)
		return
	}
	csp := root.Child("bench.check")
	defer csp.End()
	if err := b.ref.check(pt.id, st); err != nil {
		b.fail(1, "%v", err)
		return
	}
	if err := checkVectors(chip, pt.p, in); err != nil {
		b.fail(1, "%s: %v", pt.id, err)
	}
}

// simulateStream runs one point on a fresh chip and returns its
// simulated statistics and the chip, for the output check, and appends
// the operation to p.
func simulateStream(pt streamPoint, prog *asm.Program, in []float64, p *pass, root *obs.ActiveSpan) (simStats, *core.Chip, error) {
	var st simStats
	var chip *core.Chip
	dChip, err := timed(p, root, "core.new_chip", func() (err error) {
		chip, err = core.NewChip(arch.Default())
		return err
	})
	if err != nil {
		return st, nil, err
	}
	isp := root.Child("bench.input")
	err = writeVectors(chip, pt.p, in)
	isp.End()
	if err != nil {
		return st, nil, fmt.Errorf("writing inputs: %w", err)
	}
	var k *kernel.Kernel
	dBoot, err := timed(p, root, "kernel.boot", func() error {
		k = kernel.New(chip)
		// The ceiling stream.RunOn uses.
		k.Machine().MaxCycles = 500_000_000
		return k.Boot(prog)
	})
	if err != nil {
		return st, nil, fmt.Errorf("boot: %w", err)
	}
	var before, after runtime.MemStats
	if p.traced {
		runtime.ReadMemStats(&before)
	}
	dRun, err := timed(p, root, "sim.run", k.Run)
	if p.traced {
		runtime.ReadMemStats(&after)
		p.mallocs += after.Mallocs - before.Mallocs
	}
	if err != nil {
		return st, nil, fmt.Errorf("run: %w", err)
	}
	m := k.Machine()
	st = simStats{Cycles: m.Cycle(), Insts: m.TotalInsts(), Stalls: m.TotalBreakdown(), MemWaits: m.TotalMemWaits()}
	for _, tu := range m.TUs {
		st.Run += tu.Run
		st.Stall += tu.Stall
	}
	st.readChip(chip)
	if st.BestCycles, err = bestRep(chip, prog, pt.p.Reps); err != nil {
		return st, nil, err
	}
	p.ops = append(p.ops, op{lat: dChip + dBoot + dRun, sim: dRun, insts: st.Insts, cycles: st.Cycles})
	p.sim.add(st)
	compiles, flushes := m.BlockStats()
	p.blockCompiles += compiles
	p.blockFlushes += flushes
	return st, chip, nil
}

// referenceStream simulates one point for -record, checking its output.
func referenceStream(pt streamPoint) (simStats, error) {
	src, err := stream.Generate(pt.p)
	if err != nil {
		return simStats{}, err
	}
	prog, err := asm.Assemble(src)
	if err != nil {
		return simStats{}, err
	}
	w := &streamWorkload{inputs: map[int][]float64{}}
	in := w.input(&bench{}, pt.p)
	st, chip, err := simulateStream(pt, prog, in, newPass(false), nil)
	if err != nil {
		return st, fmt.Errorf("%s: %w", pt.id, err)
	}
	if err := checkVectors(chip, pt.p, in); err != nil {
		return st, fmt.Errorf("%s: %w", pt.id, err)
	}
	return st, nil
}

// bestRep reads the program's cycle stamps and returns the fastest
// repetition, STREAM's best-of-N.
func bestRep(chip *core.Chip, prog *asm.Program, reps int) (uint64, error) {
	times, ok := prog.Symbols["times"]
	if !ok {
		return 0, fmt.Errorf("program has no times symbol")
	}
	var best uint64
	for i := 0; i < reps; i++ {
		t0, err := chip.Mem.Read32(times + uint32(4*i))
		if err != nil {
			return 0, err
		}
		t1, err := chip.Mem.Read32(times + uint32(4*i+4))
		if err != nil {
			return 0, err
		}
		if d := uint64(t1 - t0); best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// Vector placement as internal/stream lays it out: three 2 MB regions,
// a, b and c, each thread of an independent run owning a private
// a|b|c block at vecA + index*3*N*8. The check below depends on it, so a
// change of layout there shows here as a result mismatch.
const (
	vecA = 0x100000
	vecB = 0x300040
	vecC = 0x500080
)

// streamScalar is the s of Scale and Triad, the generated program's
// "scalar" constant.
const streamScalar = 3.0

// elements is the point's total vector length.
func elements(p stream.Params) int {
	if p.Independent {
		return p.N * p.Threads
	}
	return p.N
}

// input returns the seeded values for a point: a, b and c back to back,
// each of the point's total length. Every point of one length sees the
// same values within a run.
func (w *streamWorkload) input(b *bench, p stream.Params) []float64 {
	n := elements(p)
	if in, ok := w.inputs[n]; ok {
		return in
	}
	r := b.rng(uint64(n))
	in := make([]float64, 3*n)
	for i := range in {
		in[i] = 0.5 + r.Float64() // no zeros, no subnormals, no NaNs
	}
	w.inputs[n] = in
	return in
}

// vectorRuns lists where vector v (0 = a, 1 = b, 2 = c) lives: one
// (physical address, first element) pair per contiguous run of p.N
// elements (per thread when independent, else the whole vector).
func vectorRuns(p stream.Params, v int) [][2]int {
	if !p.Independent {
		return [][2]int{{[]int{vecA, vecB, vecC}[v], 0}}
	}
	runs := make([][2]int, p.Threads)
	for t := range runs {
		runs[t] = [2]int{vecA + (3*t+v)*p.N*8, t * p.N}
	}
	return runs
}

func writeVectors(chip *core.Chip, p stream.Params, in []float64) error {
	n := elements(p)
	buf := make([]byte, 8*p.N)
	for v := 0; v < 3; v++ {
		vals := in[v*n : (v+1)*n]
		for _, r := range vectorRuns(p, v) {
			for j := 0; j < p.N; j++ {
				binary.LittleEndian.PutUint64(buf[8*j:], math.Float64bits(vals[r[1]+j]))
			}
			if err := chip.Mem.Write(uint32(r[0]), buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkVectors reads the kernel's destination vector back from guest
// memory and compares it with the kernel computed on the host. Triad's
// fused multiply-add may round once or twice; either is accepted.
func checkVectors(chip *core.Chip, p stream.Params, in []float64) error {
	n := elements(p)
	a, bv, c := in[:n], in[n:2*n], in[2*n:]
	dst := map[stream.Kernel]int{stream.Copy: 2, stream.Scale: 1, stream.Add: 2, stream.Triad: 0}[p.Kernel]
	buf := make([]byte, 8*p.N)
	for _, r := range vectorRuns(p, dst) {
		if err := chip.Mem.Read(uint32(r[0]), buf); err != nil {
			return err
		}
		for j := 0; j < p.N; j++ {
			i := r[1] + j
			got := math.Float64frombits(binary.LittleEndian.Uint64(buf[8*j:]))
			var want, alt float64
			switch p.Kernel {
			case stream.Copy:
				want = a[i]
			case stream.Scale:
				want = streamScalar * c[i]
			case stream.Add:
				want = a[i] + bv[i]
			case stream.Triad:
				prod := streamScalar * c[i]
				want, alt = prod+bv[i], math.FMA(c[i], streamScalar, bv[i])
			}
			if got != want && (p.Kernel != stream.Triad || got != alt) {
				return fmt.Errorf("%v element %d = %v, want %v", p.Kernel, i, got, want)
			}
		}
	}
	return nil
}
