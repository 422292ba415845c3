package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"cyclops/internal/arch"
	"cyclops/internal/obs"
)

// benchSpec is the part of BENCHMARK.json the command reads: the metric
// names, units and bounds it must print.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// endToEnd computes the end-to-end metrics of the untraced passes.
func endToEnd(b *bench, w workload) map[string]float64 {
	v := hostMetrics(b.untracedPasses(), w.concurrency() > 1)
	v["setup_s"] = median(b.setups)
	v["max_rss_mb"] = maxRSSMB()
	v["ok_ratio"] = 0
	if b.attempted > 0 {
		v["ok_ratio"] = float64(b.attempted-b.failed) / float64(b.attempted)
	}
	return v
}

// hostMetrics computes the host-time metrics of a set of passes: each
// pass's figure, the median over the passes. The host's own speed moves
// between passes (a memory-bound pass can take 1.5x another), and the
// median keeps a few slow or fast passes from deciding a run. The
// latency quantiles count every operation of a pass, so a tail that
// slows some of them shows.
func hostMetrics(ps []*pass, overlapping bool) map[string]float64 {
	var wall, mips, mcycles, rate []float64
	for _, p := range ps {
		var insts, cycles uint64
		var sim float64
		for _, o := range p.ops {
			insts += o.insts
			cycles += o.cycles
			sim += o.sim
		}
		// serve-mixed's results carry simulated counts but no simulator
		// time; its rates are per second of the pass.
		if overlapping {
			sim = p.wall
		}
		wall = append(wall, p.wall)
		mips = append(mips, ratio(float64(insts), sim)/1e6)
		mcycles = append(mcycles, ratio(float64(cycles), sim)/1e6)
		rate = append(rate, ratio(float64(len(p.ops)), p.wall))
	}
	all := func(op) bool { return true }
	return map[string]float64{
		"wall_s":            median(wall),
		"sim_mips":          median(mips),
		"sim_mcycles_per_s": median(mcycles),
		"req_p50_ms":        1e3 * passQuantile(ps, 0.5, all),
		"req_p99_ms":        1e3 * passQuantile(ps, 0.99, all),
		"req_per_s":         median(rate),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// spreadsPath holds the run-to-run spreads measured when the bounds
// were set: the interquartile range over the median of each end-to-end
// metric across ten runs per workload, the widest of three sets of ten.
const spreadsPath = "hostbench/spreads.json"

// reportSpread prints each end-to-end metric's bound next to its
// recorded run-to-run spread, and marks a spread above a third of the
// bound: a change that small is not resolved by one set of runs.
func reportSpread(out io.Writer, spec *benchSpec, workload, root string) {
	var recorded map[string]map[string]float64
	if data, err := os.ReadFile(filepath.Join(root, spreadsPath)); err == nil {
		_ = json.Unmarshal(data, &recorded) // a missing or bad record prints as n/a
	}
	for _, m := range spec.EndToEnd {
		spread, ok := recorded[workload][m.Name]
		if !ok {
			fmt.Fprintf(out, "hostbench: spread %-18s bound %5.1f%%  across 10 runs    n/a\n", m.Name, 100*m.Bound)
			continue
		}
		verdict := ""
		switch {
		case spread > m.Bound:
			verdict = "  (wider than the bound)"
		case spread > m.Bound/3:
			verdict = "  (wider than a third of the bound)"
		}
		fmt.Fprintf(out, "hostbench: spread %-18s bound %5.1f%%  across 10 runs %5.1f%%%s\n",
			m.Name, 100*m.Bound, 100*spread, verdict)
	}
}

// layerMoves records, per per-layer metric family, which end-to-end
// metric it should move and on which workload. Every per_layer metric
// of BENCHMARK.json has an entry (the self-test checks it).
var layerMoves = []struct{ prefix, moves string }{
	{"stream.", "setup_s and wall_s on stream-*"},
	{"asm.", "setup_s and wall_s on stream-*"},
	{"core.new_chip", "wall_s on stream-*, setup_s on splash-fft"},
	{"kernel.", "wall_s on stream-*"},
	{"sim.run", "wall_s and sim_mips: scheduler changes on stream-sched, dispatch and cache-model changes on stream-mem"},
	{"sim.ns_per", "wall_s and sim_mips: scheduler changes on stream-sched, dispatch and cache-model changes on stream-mem"},
	{"sim.allocs_per_kinst", "wall_s and max_rss_mb on stream-*"},
	{"sim.block_", "wall_s on stream-*"},
	{"perf.", "wall_s and sim_mcycles_per_s on splash-fft"},
	{"job.", "req_p50_ms on serve-mixed"},
	{"resultcache.", "req_p50_ms (memory and disk hits) and req_p99_ms (disk hits and misses) on serve-mixed"},
	{"serve.", "req_p99_ms and ok_ratio on serve-mixed"},
	{"sim.insts", "simulated count: identical unless the model changes; explains sim_mips moves"},
	{"sim.cycles", "simulated count: identical unless the model changes; explains sim_mips moves"},
	{"sim.ipc", "simulated count: identical unless the model changes; explains sim_mips moves"},
	{"timing.", "simulated count: identical unless the model changes; explains sim_mips moves"},
	{"cache.", "simulated count: identical unless the model changes; explains sim_mips moves"},
	{"mem.", "simulated count: identical unless the model changes; explains sim_mips moves"},
	{"core.fpu_ops_per_cycle", "simulated count: identical unless the model changes; explains sim_mips moves"},
	{"self.", "traced self time of one layer: where wall_s goes"},
	{"trace.", "tracing cost: traced minus untraced wall_s"},
}

func movesOf(name string) string {
	best := ""
	moves := ""
	for _, lm := range layerMoves {
		if strings.HasPrefix(name, lm.prefix) && len(lm.prefix) > len(best) {
			best, moves = lm.prefix, lm.moves
		}
	}
	return moves
}

// layers are the repository modules the traced run attributes self time
// to; "bench" is the benchmark's own code (input writes, checks, the
// HTTP client).
var layers = []string{"bench", "stream", "asm", "core", "kernel", "sim", "perf", "job", "resultcache", "serve"}

// layerOf maps a span name to its layer: the benchmark names its spans
// "<layer>.<call>"; the server's spans are the job stages, the cache
// tiers and the request and queue spans.
func layerOf(name string) string {
	switch name {
	case "request", "queue_wait":
		return "serve"
	case "canonicalize", "cache_lookup", "coalesce_wait", "execute", "encode", "store", "run":
		return "job"
	}
	if strings.HasPrefix(name, "cache.") {
		return "resultcache"
	}
	if l, _, ok := strings.Cut(name, "."); ok {
		return l
	}
	return "bench"
}

// perLayer computes the per-layer metrics of a traced run and prints
// each with the end-to-end metric it should move.
func perLayer(b *bench, w workload, out io.Writer) (map[string]float64, error) {
	v := map[string]float64{}
	// Each layer call's total in the median set-up or pass (whichever
	// makes the call), and the median call.
	for _, call := range []string{"stream.generate", "asm.assemble", "job.canonicalize", "job.key",
		"core.new_chip", "kernel.boot", "sim.run", "perf.run"} {
		ps := b.passes
		if !calls(ps, call) {
			ps = b.setupPasses
		}
		var sums, durs []float64
		for _, p := range ps {
			sums = append(sums, p.layerSum(call))
			durs = append(durs, p.layer[call]...)
		}
		v[call+"_s"] = median(sums)
		v[call+"_call_ms"] = 1e3 * median(durs)
	}
	p0 := b.passes[0]
	run, perfRun := 0.0, 0.0
	var mallocs, tracedInsts uint64
	for _, p := range b.passes {
		run += p.layerSum("sim.run")
		perfRun += p.layerSum("perf.run")
		if p.traced {
			mallocs += p.mallocs
			for _, o := range p.ops {
				tracedInsts += o.insts
			}
		}
	}
	var insts, cycles uint64
	for _, p := range b.passes {
		insts += p.sim.Insts
		cycles += p.sim.Cycles
	}
	v["sim.ns_per_inst"] = 1e9 * ratio(run, float64(insts))
	v["sim.ns_per_cycle"] = 1e9 * ratio(run, float64(cycles))
	v["sim.allocs_per_kinst"] = 1e3 * ratio(float64(mallocs), float64(tracedInsts))
	v["sim.block_compiles"] = float64(p0.blockCompiles)
	v["sim.block_flushes"] = float64(p0.blockFlushes)
	v["perf.ns_per_cycle"] = 1e9 * ratio(perfRun, float64(cycles))

	// Simulated counts of one pass: identical on every pass and seed.
	s := p0.sim
	v["sim.insts"] = float64(s.Insts)
	v["sim.cycles"] = float64(s.Cycles)
	v["sim.ipc"] = ratio(float64(s.Insts), float64(s.Cycles))
	for r, name := range obs.ReasonNames() {
		v["timing.stall."+name] = float64(s.Stalls[r])
	}
	for k, name := range obs.MemWaitNames() {
		v["timing.wait."+name] = float64(s.MemWaits[k])
	}
	cfg := arch.Default()
	v["cache.hit_rate"] = ratio(float64(s.CacheHits), float64(s.CacheHits+s.CacheMisses))
	v["cache.port_busy"] = ratio(float64(s.PortBusy), float64(s.Cycles)*float64(cfg.Quads()))
	v["mem.bank_busy"] = ratio(float64(s.BankBusy), float64(s.Cycles)*float64(cfg.MemBanks))
	v["mem.line_fills"] = float64(s.LineFills)
	v["mem.write_bursts"] = float64(s.WriteBursts)
	v["core.fpu_ops_per_cycle"] = ratio(float64(s.FPUOps), float64(s.Cycles))

	// Server-side layers; zero on the workloads that do not start one.
	for _, name := range []string{"job.hits", "job.misses", "job.coalesced", "job.executions", "job.hit_ratio",
		"resultcache.mem_hits", "resultcache.disk_hits", "resultcache.puts", "resultcache.evictions", "resultcache.disk_bytes",
		"serve.hit_p50_ms", "serve.hit_p99_ms", "serve.miss_p50_ms", "serve.miss_p99_ms", "serve.queue_wait_p50_ms", "serve.rejected"} {
		v[name] = 0
	}
	if sw, ok := w.(*serveWorkload); ok {
		for k, x := range sw.layerStats(b) {
			v[k] = x
		}
	}

	if err := selfTimes(b, w, v, out); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(v))
	for k := range v {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "hostbench: layer %-32s %14.6g  moves %s\n", k, v[k], movesOf(k))
	}
	return v, nil
}

// calls says whether any of ps made the layer call.
func calls(ps []*pass, call string) bool {
	for _, p := range ps {
		if len(p.layer[call]) > 0 {
			return true
		}
	}
	return false
}

// selfTimes attributes the traced intervals' spans to layers, writes
// them as a Chrome trace and fills the self.* and trace.* metrics. A
// span's self time is its duration minus the part its children cover;
// the self times of all layers therefore sum to the root spans' time,
// which cannot exceed the traced wall time times the workload's
// concurrency.
func selfTimes(b *bench, w workload, v map[string]float64, out io.Writer) error {
	all := b.tr.Snapshot()
	inTraced := func(t time.Time) bool {
		for _, iv := range b.traced {
			if !t.Before(iv[0]) && !t.After(iv[1]) {
				return true
			}
		}
		return false
	}
	spans := make([]obs.Span, 0, len(all))
	for _, sp := range all {
		if inTraced(sp.Start) {
			spans = append(spans, sp)
		}
	}
	type key struct {
		trace obs.TraceID
		span  obs.SpanID
	}
	children := map[key][]obs.Span{}
	for _, sp := range spans {
		if !sp.Parent.IsZero() {
			k := key{sp.Trace, sp.Parent}
			children[k] = append(children[k], sp)
		}
	}
	self := map[string]float64{}
	for _, sp := range spans {
		self[layerOf(sp.Name)] += (sp.Dur - covered(sp, children[key{sp.Trace, sp.ID}])).Seconds()
	}
	var tracedWall float64
	for _, iv := range b.traced {
		tracedWall += iv[1].Sub(iv[0]).Seconds()
	}
	var total float64
	for _, l := range layers {
		v["self."+l+"_s"] = self[l]
		total += self[l]
	}
	var tracedPass, plainPass []float64
	for _, p := range b.passes {
		if p.traced {
			tracedPass = append(tracedPass, p.wall)
		} else {
			plainPass = append(plainPass, p.wall)
		}
	}
	v["trace.wall_s"] = tracedWall
	v["trace.overhead_s"] = 0 // undefined until a run has both kinds of pass
	if len(tracedPass) > 0 && len(plainPass) > 0 {
		v["trace.overhead_s"] = median(tracedPass) - median(plainPass)
	}
	v["trace.spans"] = float64(len(spans))
	fmt.Fprintf(out, "hostbench: traced self time %.3f s of %.3f s traced wall x %d in flight; %d spans, %d dropped\n",
		total, tracedWall, w.concurrency(), len(spans), b.tr.Dropped())
	if total > tracedWall*float64(w.concurrency()) {
		b.fail(1, "traced self times sum to %.3f s, more than the traced wall %.3f s x %d", total, tracedWall, w.concurrency())
	}

	path := filepath.Join(b.opt.root, ".bench_build", "trace-"+b.opt.workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteSpansChrome(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "hostbench: Chrome trace written to %s\n", path)
	return nil
}

// covered is how much of parent's interval its children cover.
func covered(parent obs.Span, kids []obs.Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi time.Time }
	ivs := make([]iv, 0, len(kids))
	pEnd := parent.Start.Add(parent.Dur)
	for _, k := range kids {
		lo, hi := k.Start, k.Start.Add(k.Dur)
		if lo.Before(parent.Start) {
			lo = parent.Start
		}
		if hi.After(pEnd) {
			hi = pEnd
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var sum time.Duration
	var cur iv
	for i, x := range ivs {
		switch {
		case i == 0:
			cur = x
		case x.lo.After(cur.hi):
			sum += cur.hi.Sub(cur.lo)
			cur = x
		case x.hi.After(cur.hi):
			cur.hi = x.hi
		}
	}
	if len(ivs) > 0 {
		sum += cur.hi.Sub(cur.lo)
	}
	return sum
}
