package main

import (
	"io"
	"math"
	"math/cmplx"
	"path/filepath"
	"testing"

	"cyclops/internal/splash"
)

// The self-test runs every workload at its tiny size (one small
// operation set, one pass) against the real BENCHMARK.json and
// reference.json.

func loadFiles(t *testing.T) (*benchSpec, reference) {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := loadReference(filepath.Join("..", referencePath))
	if err != nil {
		t.Fatal(err)
	}
	return spec, ref
}

func tinyRun(t *testing.T, workload string, trace bool, spec *benchSpec, ref reference) *result {
	t.Helper()
	res, err := measureWith(options{workload: workload, seed: 7, trace: trace, root: "..", tiny: true}, spec, ref, io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	return res
}

func TestEveryMetricEmittedWithItsUnit(t *testing.T) {
	spec, ref := loadFiles(t)
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, w, trace, spec, ref)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", w, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w, trace, m.Name, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w, m.Name, got.Value)
				}
			}
			if trace {
				checkSelfTimes(t, w, res)
			}
		}
	}
}

// checkSelfTimes: traced per-layer self times sum to no more than the
// traced wall time times the operations in flight.
func checkSelfTimes(t *testing.T, w string, res *result) {
	t.Helper()
	var sum float64
	for _, l := range layers {
		sum += res.Metrics["self."+l+"_s"].Value
	}
	wall := res.Metrics["trace.wall_s"].Value
	mk, _ := newWorkload(w, options{tiny: true})
	if sum <= 0 || sum > wall*float64(mk.concurrency()) {
		t.Errorf("%s: self times sum to %v s, traced wall %v s x %d", w, sum, wall, mk.concurrency())
	}
}

func TestPerturbedReferenceIsAFailure(t *testing.T) {
	spec, ref := loadFiles(t)
	for _, w := range []string{"stream-sched", "splash-fft"} {
		bad := reference{}
		for id, st := range ref {
			st.Stalls[0]++
			bad[id] = st
		}
		res := tinyRun(t, w, false, spec, bad)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a perturbed reference passed (correct=%v failed=%d)", w, res.Correct, res.Failed)
		}
	}
}

func TestEveryLayerMetricHasAnEndToEndTarget(t *testing.T) {
	spec, _ := loadFiles(t)
	for _, m := range spec.PerLayer {
		if movesOf(m.Name) == "" {
			t.Errorf("per-layer metric %s has no entry in layerMoves", m.Name)
		}
	}
}

func TestHostFFTMatchesNaiveDFT(t *testing.T) {
	x := fftSignal(&bench{}, 64)
	got, want := hostFFT(x), splash.NaiveDFT(x)
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("hostFFT[%d] = %v, NaiveDFT %v", i, got[i], want[i])
		}
	}
}
