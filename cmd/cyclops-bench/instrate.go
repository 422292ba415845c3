package main

import (
	"fmt"
	"os"

	"cyclops/internal/harness/instrate"
)

// runInstrate measures the per-engine instruction rate (median of
// -samples runs of the dispatch-bound benchmark loop, then of the
// 126-thread scheduler rung) and prints both tables. With -bench-json it
// appends the measurement as a new entry of the BENCH_sim.json
// trajectory, tagged -bench-id.
func runInstrate(samples int, jsonPath, id, note string) error {
	results, err := instrate.Measure(samples)
	if err != nil {
		return err
	}
	fmt.Printf("instruction rate, median of %d (loop of %d instructions, %d cycles):\n",
		samples, results[0].Insts, results[0].Cycles)
	printRates(results)
	sched, err := instrate.MeasureSched(samples)
	if err != nil {
		return err
	}
	fmt.Printf("scheduler rung, median of %d (126-thread STREAM, %d instructions, %d cycles):\n",
		samples, sched[0].Insts, sched[0].Cycles)
	printRates(sched)
	fmt.Printf("block/legacy speedup %.2f\n", instrate.SchedSpeedup(sched))
	if jsonPath == "" {
		return nil
	}
	f, err := instrate.Load(jsonPath)
	if os.IsNotExist(err) {
		f = &instrate.File{Benchmark: "BenchmarkSimInstructionRate"}
	} else if err != nil {
		return err
	}
	e := instrate.NewEntry(id, samples, results, sched)
	e.Note = note
	f.Entries = append(f.Entries, e)
	if err := f.Save(jsonPath); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "cyclops-bench: appended entry %q to %s (%d entries)\n",
		id, jsonPath, len(f.Entries))
	return nil
}

func printRates(results []instrate.Result) {
	fmt.Println("engine     simMIPS     ns/run")
	for _, r := range results {
		fmt.Printf("%-8s  %8.2f  %10d\n", r.Engine, r.SimMIPS, r.NsPerRun)
	}
}
