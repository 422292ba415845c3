// Package instrate measures the simulator's host-side instruction rate
// (simMIPS) per execution engine on two rungs: R0, the same tight
// arithmetic loop as BenchmarkSimInstructionRate (solo dispatch), and
// R1, a 126-thread STREAM point (the scheduler). cmd/cyclops-bench exposes it as
// -instrate; the CI bench-smoke lane uses it as a regression and
// equivalence gate. Results append to BENCH_sim.json, whose entries
// record the engine trajectory across PRs.
package instrate

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
	"cyclops/internal/kernel"
	"cyclops/internal/sim"
	"cyclops/internal/stream"
)

// loopSrc is the measured workload: the BenchmarkSimInstructionRate
// loop — four dependent integer instructions per iteration, the
// dispatch-bound worst case for a cycle-exact simulator.
const loopSrc = `
	li   r8, 200000
loop:	addi r8, r8, -1
	add  r9, r9, r8
	xor  r10, r9, r8
	bne  r8, r0, loop
	halt
	`

// schedParams is the scheduler rung (R1): fig5a's small-scale Copy, one
// in-cache STREAM blocked over 126 threads. Nearly every scheduler
// iteration issues many units at once, so the scheduler — not block
// dispatch — dominates its host time.
var schedParams = stream.Params{Kernel: stream.Copy, Threads: 126, N: 104 * 126, Reps: 2}

// Result is one engine's measurement: the median of the per-sample
// rates, plus the simulated totals every engine must agree on.
type Result struct {
	Engine   sim.Engine
	SimMIPS  float64 // median over samples
	NsPerRun uint64  // median wall time of one boot+run
	Cycles   uint64  // simulated cycles (engine-invariant)
	Insts    uint64  // simulated instructions (engine-invariant)
	// Ns is each sample's wall time, in sample order; samples of
	// different engines interleave, so equal indices ran back to back.
	Ns []uint64
}

// Measure runs the loop program `samples` times on every engine and
// returns per-engine medians, fastest engine first. It errors if any
// engine disagrees on simulated cycles or instructions — the
// equivalence contract, checked on every benchmark run.
func Measure(samples int) ([]Result, error) {
	prog, err := asm.Assemble(loopSrc)
	if err != nil {
		return nil, err
	}
	return measure(prog, samples, sim.Engines())
}

// MeasureSched runs the scheduler rung `samples` times on the block and
// legacy engines, with Measure's equivalence check. The legacy engine's
// O(active) scan is the fixed reference the block engine's scheduler is
// timed against.
func MeasureSched(samples int) ([]Result, error) {
	src, err := stream.Generate(schedParams)
	if err != nil {
		return nil, err
	}
	prog, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	return measure(prog, samples, []sim.Engine{sim.EngineBlock, sim.EngineLegacy})
}

// SchedSpeedup is the scheduler rung's host-robust figure: legacy host
// time over block host time, the median over samples of each
// back-to-back pair, so host load that drifts between samples cancels.
func SchedSpeedup(results []Result) float64 {
	var block, legacy []uint64
	for _, r := range results {
		switch r.Engine {
		case sim.EngineBlock:
			block = r.Ns
		case sim.EngineLegacy:
			legacy = r.Ns
		}
	}
	if len(block) == 0 || len(block) != len(legacy) {
		return 0
	}
	ratios := make([]float64, len(block))
	for i := range block {
		ratios[i] = float64(legacy[i]) / float64(block[i])
	}
	sort.Float64s(ratios)
	return ratios[len(ratios)/2]
}

// measure boots prog under the kernel `samples` times per engine, the
// engines interleaved sample by sample, and returns per-engine medians,
// erroring on any cycle/instruction mismatch.
func measure(prog *asm.Program, samples int, engines []sim.Engine) ([]Result, error) {
	if samples < 1 {
		samples = 1
	}
	results := make([]Result, len(engines))
	for s := 0; s < samples; s++ {
		for i, e := range engines {
			chip, err := core.NewChip(arch.Default())
			if err != nil {
				return nil, err
			}
			k := kernel.New(chip)
			k.Machine().SetEngine(e)
			k.Machine().MaxCycles = 1_000_000_000
			t0 := time.Now() //detlint:clock — instrate exists to measure wall time
			if err := k.Boot(prog); err != nil {
				return nil, err
			}
			if err := k.Run(); err != nil {
				return nil, err
			}
			elapsed := time.Since(t0)
			r := &results[i]
			r.Engine, r.Cycles, r.Insts = e, k.Machine().Cycle(), k.Machine().TotalInsts()
			r.Ns = append(r.Ns, uint64(elapsed.Nanoseconds()))
		}
	}
	for i := range results {
		r := &results[i]
		times := append([]uint64(nil), r.Ns...)
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		r.NsPerRun = times[len(times)/2]
		r.SimMIPS = float64(r.Insts) / (float64(r.NsPerRun) / 1e9) / 1e6
	}
	for _, r := range results[1:] {
		if r.Cycles != results[0].Cycles || r.Insts != results[0].Insts {
			return nil, fmt.Errorf(
				"instrate: engine equivalence broken: %s ran %d cycles / %d insts, %s ran %d cycles / %d insts",
				results[0].Engine, results[0].Cycles, results[0].Insts,
				r.Engine, r.Cycles, r.Insts)
		}
	}
	return results, nil
}

// Rate is one engine's recorded rate in a BENCH_sim.json entry.
type Rate struct {
	SimMIPS  float64 `json:"simMIPS"`
	NsPerRun uint64  `json:"ns_per_run,omitempty"`
}

// Entry is one point of the BENCH_sim.json trajectory: the per-engine
// rates measured on one host at one point in the repo's history.
type Entry struct {
	ID      string          `json:"id"`
	HostCPU string          `json:"host_cpu,omitempty"`
	Go      string          `json:"go,omitempty"`
	Samples int             `json:"samples,omitempty"`
	Engines map[string]Rate `json:"engines"`
	// SpeedupBlockVsDecoded is kept so entries recorded while the
	// retired decoded engine existed round-trip through Save unchanged.
	SpeedupBlockVsDecoded float64 `json:"speedup_block_vs_decoded,omitempty"`
	// EnginesBefore holds R0 rates of the preceding commit measured on
	// the same host, for entries that show the solo path did not move.
	EnginesBefore map[string]Rate `json:"engines_before,omitempty"`
	// Sched records the scheduler rung (MeasureSched) per engine, and
	// SpeedupSchedBlockVsLegacy its SchedSpeedup: the figure the
	// bench-smoke lane gates.
	Sched                     map[string]Rate `json:"sched,omitempty"`
	SpeedupSchedBlockVsLegacy float64         `json:"speedup_sched_block_vs_legacy,omitempty"`
	Note                      string          `json:"note,omitempty"`
}

// File is the BENCH_sim.json schema: fixed metadata plus the
// append-only trajectory.
type File struct {
	Benchmark   string  `json:"benchmark"`
	Method      string  `json:"method,omitempty"`
	Equivalence string  `json:"equivalence,omitempty"`
	Entries     []Entry `json:"entries"`
}

// Load reads a BENCH_sim.json trajectory file.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// Save writes the trajectory back, indented, with a trailing newline.
// The write goes through a temp file in the same directory plus an
// atomic rename, so an interrupted save leaves the old trajectory
// intact instead of a truncated JSON file.
func (f *File) Save(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// NewEntry converts the R0 measurement and, when non-empty, the
// scheduler rung's into a trajectory entry.
func NewEntry(id string, samples int, results, sched []Result) Entry {
	e := Entry{
		ID:      id,
		HostCPU: hostCPU(),
		Go:      runtime.Version(),
		Samples: samples,
		Engines: rates(results),
	}
	if len(sched) > 0 {
		e.Sched = rates(sched)
		e.SpeedupSchedBlockVsLegacy = round2(SchedSpeedup(sched))
	}
	return e
}

// rates converts results into their recorded per-engine form.
func rates(results []Result) map[string]Rate {
	m := make(map[string]Rate, len(results))
	for _, r := range results {
		m[r.Engine.String()] = Rate{SimMIPS: round2(r.SimMIPS), NsPerRun: r.NsPerRun}
	}
	return m
}

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }

// hostCPU returns the host's CPU model name, best-effort ("" when
// unavailable, e.g. off Linux).
func hostCPU() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}
