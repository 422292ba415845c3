package main

import (
	"fmt"
	"math"
	"math/cmplx"

	"cyclops/internal/arch"
	"cyclops/internal/core"
	"cyclops/internal/obs"
	"cyclops/internal/splash"
)

// fftPoint is one perf-runtime FFT run: splash-fft's unit of work.
type fftPoint struct {
	id      string
	n       int
	threads int
	barrier splash.BarrierKind
}

// fftPoints are splash-fft's points: the Figure 7 FFT at 64K points on
// 16 and 64 threads with hardware and software barriers. The runtime
// never enters the cycle simulator's scheduler but shares its cache and
// memory model.
func fftPoints(tiny bool) []fftPoint {
	mk := func(n, threads int, bk splash.BarrierKind) fftPoint {
		return fftPoint{id: fmt.Sprintf("fft/n%d/t%d/%v", n, threads, bk), n: n, threads: threads, barrier: bk}
	}
	if tiny {
		return []fftPoint{mk(4096, 16, splash.HW)}
	}
	var pts []fftPoint
	for _, threads := range []int{16, 64} {
		for _, bk := range []splash.BarrierKind{splash.HW, splash.SW} {
			pts = append(pts, mk(65536, threads, bk))
		}
	}
	return pts
}

type fftWorkload struct {
	points []fftPoint
	// input holds each length's seeded signal (built by setup); want its
	// host-computed transform (built at the first check).
	input, want map[int][]complex128
	// chips holds the fresh chip each point of the next pass runs on,
	// indexed like points (built by setup).
	chips []*core.Chip
}

func newSplashFFT(o options) workload {
	return &fftWorkload{points: fftPoints(o.tiny), want: map[int][]complex128{}}
}

func (w *fftWorkload) concurrency() int { return 1 }

// setup builds the seeded input signals and a fresh chip for each point,
// the program set-up an FFT run needs before splash.RunFFT.
func (w *fftWorkload) setup(b *bench, p *pass) error {
	root := b.span("bench.setup")
	defer root.End()
	w.input = map[int][]complex128{}
	w.chips = make([]*core.Chip, len(w.points))
	for i, pt := range w.points {
		if _, ok := w.input[pt.n]; !ok {
			w.input[pt.n] = fftSignal(b, pt.n)
		}
		if _, err := timed(p, root, "core.new_chip", func() (err error) {
			w.chips[i], err = core.NewChip(arch.Default())
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

func fftSignal(b *bench, n int) []complex128 {
	r := b.rng(uint64(n))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.Float64()-0.5, r.Float64()-0.5)
	}
	return x
}

func (w *fftWorkload) teardown() error {
	w.input, w.chips = nil, nil
	return nil
}

func (w *fftWorkload) finish(b *bench) error { return nil }

func (w *fftWorkload) pass(b *bench, p *pass) error {
	for _, i := range b.rng(uint64(len(b.passes))).Perm(len(w.points)) {
		pt := w.points[i]
		root := b.span("bench.point").Attr("point", pt.id)
		b.attempt()
		st, out, err := simulateFFT(pt, w.chips[i], w.input[pt.n], p, root)
		w.chips[i] = nil
		if err != nil {
			b.fail(1, "%s: %v", pt.id, err)
			root.End()
			continue
		}
		csp := root.Child("bench.check")
		if err := b.ref.check(pt.id, st); err != nil {
			b.fail(1, "%v", err)
		} else if err := w.check(pt, out); err != nil {
			b.fail(1, "%s: %v", pt.id, err)
		}
		csp.End()
		root.End()
	}
	for _, o := range p.ops {
		p.wall += o.lat
	}
	return nil
}

// simulateFFT runs one point on chip, a fresh one, and returns its
// simulated statistics and the transformed signal, and appends the
// operation (the splash.RunFFT call) to p.
func simulateFFT(pt fftPoint, chip *core.Chip, in []complex128, p *pass, root *obs.ActiveSpan) (simStats, []complex128, error) {
	var st simStats
	data := append([]complex128(nil), in...)
	var r *splash.Result
	dRun, err := timed(p, root, "perf.run", func() (err error) {
		r, err = splash.RunFFT(splash.FFTOpts{
			Config: splash.Config{Threads: pt.threads, Barrier: pt.barrier, Chip: chip},
			N:      pt.n,
			Data:   data,
		})
		return err
	})
	if err != nil {
		return st, nil, err
	}
	st = simStats{Cycles: r.Cycles, Run: r.Run, Stall: r.Stall, Stalls: r.Stalls, MemWaits: r.MemWaits}
	st.readChip(chip)
	// The direct-execution runtime has no instruction stream; its summed
	// run (issue-busy) cycles stand in for instructions.
	p.ops = append(p.ops, op{lat: dRun, sim: dRun, insts: r.Run, cycles: r.Cycles})
	p.sim.add(st)
	return st, data, nil
}

// check compares the runtime's transform with the host's.
func (w *fftWorkload) check(pt fftPoint, got []complex128) error {
	want, ok := w.want[pt.n]
	if !ok {
		want = hostFFT(w.input[pt.n])
		w.want[pt.n] = want
	}
	return compareSpectra(got, want)
}

// compareSpectra accepts rounding differences only: the largest error
// must stay within 1e-9 of the largest magnitude.
func compareSpectra(got, want []complex128) error {
	if len(got) != len(want) {
		return fmt.Errorf("transform length %d, want %d", len(got), len(want))
	}
	var scale, worst float64
	at := 0
	for i := range want {
		scale = math.Max(scale, cmplx.Abs(want[i]))
		if e := cmplx.Abs(got[i] - want[i]); e > worst {
			worst, at = e, i
		}
	}
	if worst > 1e-9*scale {
		return fmt.Errorf("transform element %d = %v, want %v", at, got[at], want[at])
	}
	return nil
}

// hostFFT is an iterative radix-2 forward DFT, X[k] = sum x[j]
// exp(-2 pi i jk/n), written independently of the runtime's six-step
// algorithm.
func hostFFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	bits := 0
	for 1<<bits < n {
		bits++
	}
	for i := range x {
		rev := 0
		for b := 0; b < bits; b++ {
			rev |= (i >> b & 1) << (bits - 1 - b)
		}
		out[rev] = x[i]
	}
	for size := 2; size <= n; size <<= 1 {
		for k := 0; k < size/2; k++ {
			w := cmplx.Rect(1, -2*math.Pi*float64(k)/float64(size))
			for start := k; start < n; start += size {
				u, v := out[start], w*out[start+size/2]
				out[start], out[start+size/2] = u+v, u-v
			}
		}
	}
	return out
}

// referenceFFT runs one point for -record, checking its output.
func referenceFFT(pt fftPoint) (simStats, error) {
	in := fftSignal(&bench{}, pt.n)
	chip, err := core.NewChip(arch.Default())
	if err != nil {
		return simStats{}, err
	}
	st, out, err := simulateFFT(pt, chip, in, newPass(false), nil)
	if err != nil {
		return st, fmt.Errorf("%s: %w", pt.id, err)
	}
	if err := compareSpectra(out, hostFFT(in)); err != nil {
		return st, fmt.Errorf("%s: %w", pt.id, err)
	}
	return st, nil
}
