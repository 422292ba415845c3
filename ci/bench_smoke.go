//go:build ignore

// Bench-smoke lane: measures the per-engine instruction rate and gates
// the block engine's speed relative to the legacy oracle against the
// recorded baseline:
//
//	go run ./ci/bench_smoke.go [BENCH_sim.json]
//
// CI hosts vary in absolute speed, so both gates are host-robust ratios
// of the block engine over the legacy engine, whose code is frozen and
// so makes a steady denominator. Each measured ratio must stay within
// ratioSlack of the one recorded in the newest BENCH_sim.json entry
// that carries it. The measurement itself re-checks cross-engine
// cycle/instruction equivalence, so a timing divergence also fails the
// lane.
//
//   - R0, the solo dispatch loop: block/legacy simMIPS. A block-engine
//     dispatch regression (say, a hot op falling back to the generic
//     issue path) shows up as a collapsed ratio even on a slow runner.
//   - R1, the scheduler rung: a 126-thread in-cache STREAM point. Its
//     legacy/block host-time ratio catches a scheduler regression, which
//     the solo loop never exercises because it never queues a second
//     unit.
package main

import (
	"fmt"
	"log"
	"os"

	"cyclops/internal/harness/instrate"
	"cyclops/internal/sim"
)

// ratioSlack is the fraction of a recorded block/legacy ratio the
// measured ratio may lose before the lane fails (0.8 = a >20%
// regression fails).
const ratioSlack = 0.8

// samples per engine; medians absorb scheduler noise on shared runners.
// A median of three solo-loop samples still sits inside a shared host's
// run-to-run spread, so both rungs take nine.
const (
	samples      = 9
	schedSamples = 9
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench-smoke: ")
	path := "BENCH_sim.json"
	if len(os.Args) > 1 {
		path = os.Args[1]
	}
	f, err := instrate.Load(path)
	if err != nil {
		log.Fatal(err)
	}

	results, err := instrate.Measure(samples)
	if err != nil {
		log.Fatal(err) // includes cross-engine equivalence breaks
	}
	fmt.Println("engine     simMIPS   ns/run")
	for _, r := range results {
		fmt.Printf("%-8s  %8.2f  %8d\n", r.Engine, r.SimMIPS, r.NsPerRun)
	}
	sched, err := instrate.MeasureSched(schedSamples)
	if err != nil {
		log.Fatal(err) // includes cross-engine equivalence breaks
	}
	fmt.Println("scheduler rung   simMIPS   ns/run")
	for _, r := range sched {
		fmt.Printf("%-8s  %8.2f  %8d\n", r.Engine, r.SimMIPS, r.NsPerRun)
	}

	// The measurement, shaped like a trajectory entry, reads through the
	// same ratio functions as the recorded baselines.
	measured := instrate.NewEntry("measured", samples, results, sched)
	gate(f, "R0 solo loop", soloSpeedup, measured)
	gate(f, "R1 scheduler rung", schedSpeedup, measured)
	log.Print("ok")
}

// soloSpeedup is an entry's R0 block/legacy simMIPS ratio, 0 when the
// entry lacks either engine.
func soloSpeedup(e instrate.Entry) float64 {
	b, l := e.Engines[sim.EngineBlock.String()], e.Engines[sim.EngineLegacy.String()]
	if b.SimMIPS == 0 || l.SimMIPS == 0 {
		return 0
	}
	return b.SimMIPS / l.SimMIPS
}

// schedSpeedup is an entry's recorded R1 block/legacy speedup, 0 when
// the entry predates the rung.
func schedSpeedup(e instrate.Entry) float64 { return e.SpeedupSchedBlockVsLegacy }

// gate reads one block/legacy ratio from the measurement and from the
// newest trajectory entry that records it, and fails the lane when the
// measured ratio lost more than the slack.
func gate(f *instrate.File, rung string, ratio func(instrate.Entry) float64, m instrate.Entry) {
	measured := ratio(m)
	for i := len(f.Entries) - 1; i >= 0; i-- {
		base := ratio(f.Entries[i])
		if base == 0 {
			continue
		}
		log.Printf("%s: block/legacy measured %.2f, baseline %s %.2f (gate: >= %.2f)",
			rung, measured, f.Entries[i].ID, base, ratioSlack*base)
		if measured < ratioSlack*base {
			log.Fatalf("%s regressed: measured ratio %.2f < %.2f (%.0f%% of recorded %.2f)",
				rung, measured, ratioSlack*base, 100*ratioSlack, base)
		}
		return
	}
	log.Fatalf("no trajectory entry records the %s", rung)
}
