// Command hostbench measures how fast the Cyclops simulator stack runs on
// the host, on four workloads chosen from where a real figure sweep
// spends its time:
//
//	stream-sched  126-thread in-cache STREAM points (scheduler-bound)
//	stream-mem    single-thread out-of-cache STREAM points (memory model)
//	splash-fft    the perf-runtime 64K-point FFT (direct execution)
//	serve-mixed   an in-process cyclops-serve under a closed loop of clients
//
// Usage, from the repository root:
//
//	go -C hostbench run . -root .. -workload stream-sched -seed 1 -seconds 20 -trace 0
//	python3 hostbench/run.py --workload stream-sched --seed 1 --seconds 20 --trace 0
//
// A run repeats passes over the workload's fixed operation set for
// -seconds, setting the workload up afresh several times before each
// pass (setup_s is the median set-up). Every operation's output is
// checked: STREAM vectors and FFT spectra against a host computation,
// simulated statistics against reference.json, served results against a
// direct job.Runner run. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With -trace 0
// the metrics are the end-to-end metrics of BENCHMARK.json; with -trace 1
// they are its per-layer metrics, measured in a run that records spans
// around every layer call and writes them as a Chrome trace under
// .bench_build/. Any mismatch makes the exit code 1.
//
// -record re-runs every reference point once and rewrites reference.json;
// do that only when a change is meant to move simulated statistics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string
	// tiny shrinks every workload to its smallest operation set, for the
	// self-test; reference.json holds the tiny points too.
	tiny bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: input vectors, operation order and the serve request pool")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase in host seconds (whole passes)")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = end-to-end metrics")
	fs.StringVar(&o.root, "root", "..", "repository root: holds BENCHMARK.json; scratch files go to its .bench_build/")
	record := fs.Bool("record", false, "re-record reference.json from the current simulator instead of measuring")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "hostbench: -trace %d, want 0 or 1\n", *trace)
		return 2
	}
	o.trace = *trace == 1
	if *record {
		if err := recordReference(o.root); err != nil {
			fmt.Fprintln(stderr, "hostbench:", err)
			return 1
		}
		return 0
	}
	res, err := measure(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupsPerPass is how many times a run sets its workload up before each
// pass; the pass runs on the last set-up, and setup_s is the median over
// all of them. Set-ups spread over the run sample the host's speed where
// the passes sample it, and the median keeps a slow one (the cold first
// set-up, a collection) from deciding the figure.
const setupsPerPass = 5

// measure runs one workload against BENCHMARK.json and reference.json
// under o.root.
func measure(o options, out io.Writer) (*result, error) {
	spec, err := loadSpec(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	ref, err := loadReference(filepath.Join(o.root, referencePath))
	if err != nil {
		return nil, err
	}
	return measureWith(o, spec, ref, out)
}

// measureWith runs one workload and assembles its metrics. Progress and
// the spread report go to out ahead of the final JSON line.
func measureWith(o options, spec *benchSpec, ref reference, out io.Writer) (*result, error) {
	w, err := newWorkload(o.workload, o)
	if err != nil {
		return nil, err
	}
	scratch := filepath.Join(o.root, ".bench_build", "run-"+o.workload)
	if err := os.RemoveAll(scratch); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	b := newBench(o, ref, scratch)
	fmt.Fprintf(out, "hostbench: workload=%s seed=%d seconds=%g trace=%d go=%s cpus=%d\n",
		o.workload, o.seed, o.seconds, boolInt(o.trace), runtime.Version(), runtime.NumCPU())

	defer w.teardown()

	// Passes alternate traced and untraced in a traced run, so the
	// tracing overhead is measured in one process on one workload state.
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		traced := o.trace && i%2 == 0
		for j := 0; j < setupsPerPass; j++ {
			if err := setUp(b, w, traced); err != nil {
				return nil, fmt.Errorf("%s setup: %w", o.workload, err)
			}
		}
		runtime.GC()
		if traced {
			b.beginTraced()
		}
		p := newPass(traced)
		if err := w.pass(b, p); err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", o.workload, i, err)
		}
		if traced {
			b.endTraced()
		}
		b.passes = append(b.passes, p)
		tag := ""
		if traced {
			tag = " (traced)"
		}
		fmt.Fprintf(out, "hostbench: pass %d%s: %.4f s, %d operations\n", i, tag, p.wall, len(p.ops))
	}
	if err := w.finish(b); err != nil {
		return nil, fmt.Errorf("%s checks: %w", o.workload, err)
	}
	if sw, ok := w.(*serveWorkload); ok {
		sw.reportTiers(b, out)
	}
	for _, f := range b.failures {
		fmt.Fprintln(out, "hostbench: FAIL", f)
	}

	res := &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed}
	values := endToEnd(b, w)
	fmt.Fprintf(out, "hostbench: %d passes, %d operations attempted\n", len(b.passes), b.attempted)
	want := spec.EndToEnd
	if !o.trace {
		ps := b.untracedPasses()
		fmt.Fprintf(out, "hostbench: host-time metrics: median over %d passes; latency quantiles over the %d operations of each pass\n",
			len(ps), len(ps[0].ops))
		reportSpread(out, spec, o.workload, o.root)
	} else {
		values, err = perLayer(b, w, out)
		if err != nil {
			return nil, err
		}
		want = spec.PerLayer
	}
	res.Metrics = make(map[string]metric, len(want))
	var missing []string
	for _, m := range want {
		v, ok := values[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, errors.New("no value for metrics " + strings.Join(missing, ", "))
	}
	return res, nil
}

// setUp tears down the workload's last set-up and times a fresh one.
// The set-up ahead of a traced pass is traced too.
func setUp(b *bench, w workload, traced bool) error {
	if err := w.teardown(); err != nil {
		return err
	}
	runtime.GC()
	if traced {
		b.beginTraced()
	}
	p := newPass(traced)
	start := time.Now()
	if err := w.setup(b, p); err != nil {
		return err
	}
	b.setups = append(b.setups, time.Since(start).Seconds())
	b.setupPasses = append(b.setupPasses, p)
	if traced {
		b.endTraced()
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
