//go:build ignore

// Bench-smoke lane: measures the per-engine instruction rate and gates
// the block engine's relative speed against the recorded baseline:
//
//	go run ./ci/bench_smoke.go [BENCH_sim.json]
//
// CI hosts vary in absolute speed, so the gate is host-robust: the
// measured block/decoded ratio must stay within ratioSlack of the
// ratio recorded in the newest BENCH_sim.json entry that carries both
// engines. A block-engine regression (say, a fusion pass that stops
// firing) shows up as a collapsed ratio even on a slow runner. The
// measurement itself re-checks cross-engine cycle/instruction
// equivalence, so a timing divergence also fails the lane.
//
// A second gate covers the scheduler rung: a 126-thread in-cache STREAM
// point on the block and legacy engines. Its legacy/block host-time
// ratio must stay within ratioSlack of the newest recorded one, so a
// scheduler regression fails the lane even though the solo loop never
// queues a second unit.
package main

import (
	"fmt"
	"log"
	"os"

	"cyclops/internal/harness/instrate"
	"cyclops/internal/sim"
)

// ratioSlack is the fraction of the recorded block/decoded ratio the
// measured ratio may lose before the lane fails (0.8 = a >20%
// regression fails, per the PR's acceptance bar).
const ratioSlack = 0.8

// samples per engine; medians absorb scheduler noise on shared runners.
// The scheduler rung's runs are short, so it takes more.
const (
	samples      = 3
	schedSamples = 9
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench-smoke: ")
	path := "BENCH_sim.json"
	if len(os.Args) > 1 {
		path = os.Args[1]
	}

	baseline, id := recordedRatio(path)
	log.Printf("baseline %s: block/decoded = %.2f (gate: >= %.2f)", id, baseline, ratioSlack*baseline)

	results, err := instrate.Measure(samples)
	if err != nil {
		log.Fatal(err) // includes cross-engine equivalence breaks
	}
	rates := map[sim.Engine]float64{}
	fmt.Println("engine     simMIPS   ns/run")
	for _, r := range results {
		fmt.Printf("%-8s  %8.2f  %8d\n", r.Engine, r.SimMIPS, r.NsPerRun)
		rates[r.Engine] = r.SimMIPS
	}

	ratio := rates[sim.EngineBlock] / rates[sim.EngineDecoded]
	log.Printf("measured block/decoded = %.2f", ratio)
	if ratio < ratioSlack*baseline {
		log.Fatalf("block engine regressed: measured ratio %.2f < %.2f (%.0f%% of recorded %.2f)",
			ratio, ratioSlack*baseline, 100*ratioSlack, baseline)
	}

	schedBase, schedID := recordedSchedSpeedup(path)
	log.Printf("baseline %s: scheduler rung block/legacy = %.2f (gate: >= %.2f)", schedID, schedBase, ratioSlack*schedBase)
	sched, err := instrate.MeasureSched(schedSamples)
	if err != nil {
		log.Fatal(err) // includes cross-engine equivalence breaks
	}
	fmt.Println("scheduler rung   simMIPS   ns/run")
	for _, r := range sched {
		fmt.Printf("%-8s  %8.2f  %8d\n", r.Engine, r.SimMIPS, r.NsPerRun)
	}
	schedRatio := instrate.SchedSpeedup(sched)
	log.Printf("measured scheduler rung block/legacy = %.2f", schedRatio)
	if schedRatio < ratioSlack*schedBase {
		log.Fatalf("scheduler regressed: measured ratio %.2f < %.2f (%.0f%% of recorded %.2f)",
			schedRatio, ratioSlack*schedBase, 100*ratioSlack, schedBase)
	}
	log.Print("ok")
}

// recordedSchedSpeedup returns the scheduler rung's block/legacy
// speedup from the newest trajectory entry recording it, and that
// entry's id.
func recordedSchedSpeedup(path string) (float64, string) {
	f, err := instrate.Load(path)
	if err != nil {
		log.Fatal(err)
	}
	for i := len(f.Entries) - 1; i >= 0; i-- {
		if e := f.Entries[i]; e.SpeedupSchedBlockVsLegacy > 0 {
			return e.SpeedupSchedBlockVsLegacy, e.ID
		}
	}
	log.Fatalf("%s: no entry records the scheduler rung", path)
	return 0, ""
}

// recordedRatio returns the block/decoded speedup of the newest
// trajectory entry measuring both engines, and that entry's id.
func recordedRatio(path string) (float64, string) {
	f, err := instrate.Load(path)
	if err != nil {
		log.Fatal(err)
	}
	for i := len(f.Entries) - 1; i >= 0; i-- {
		e := f.Entries[i]
		b, okB := e.Engines[sim.EngineBlock.String()]
		d, okD := e.Engines[sim.EngineDecoded.String()]
		if okB && okD && d.SimMIPS > 0 {
			return b.SimMIPS / d.SimMIPS, e.ID
		}
	}
	log.Fatalf("%s: no entry records both block and decoded engines", path)
	return 0, ""
}
