//go:build ignore

// Matrix-smoke lane: runs a 2×2 slice of the scheduling-policy × latency
// scenario matrix — {fine, switchmiss/8} × {Table 2, slow misses} — on a
// tiny STREAM Triad, once per execution engine:
//
//	go run ./ci/matrix_smoke.go [-update]
//
// The lane fails if any engine's table differs from the block engine's
// by a byte (the cross-engine contract extended over the policy and
// latency axes), or if the block engine's table drifts from the golden
// recorded in ci/testdata/matrix_smoke.golden. Cycle counts here are
// simulated, so the golden is host-independent; -update rewrites it
// after an intentional timing change.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"cyclops/internal/arch"
	"cyclops/internal/job"
	"cyclops/internal/job/workloads"
	"cyclops/internal/kernel"
	"cyclops/internal/obs"
	"cyclops/internal/resultcache"
	"cyclops/internal/sim"
	"cyclops/internal/stream"
	"cyclops/internal/timing"
)

const goldenPath = "ci/testdata/matrix_smoke.golden"

func main() {
	log.SetFlags(0)
	log.SetPrefix("matrix-smoke: ")
	update := flag.Bool("update", false, "rewrite the golden table")
	flag.Parse()

	tables := map[sim.Engine]string{}
	for _, e := range sim.Engines() {
		t, err := renderMatrix(e)
		if err != nil {
			log.Fatalf("%s engine: %v", e, err)
		}
		tables[e] = t
	}
	ref := tables[sim.EngineBlock]
	for _, e := range sim.Engines() {
		if tables[e] != ref {
			log.Fatalf("%s engine table differs from block engine\n--- block ---\n%s--- %s ---\n%s",
				e, ref, e, tables[e])
		}
	}
	log.Printf("all %d engines byte-identical over the policy × latency slice", len(tables))

	if *update {
		if err := os.MkdirAll("ci/testdata", 0o755); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(ref), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("rewrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		log.Fatalf("%v (run `go run ./ci/matrix_smoke.go -update` to record it)", err)
	}
	if ref != string(want) {
		log.Fatalf("matrix slice drifted from golden\n--- golden ---\n%s--- got ---\n%s", want, ref)
	}
	fmt.Print(ref)
	log.Printf("matrix slice matches %s", goldenPath)
}

// runner executes the scenario points through the job layer — the same
// path the harness matrix experiment takes — with a memory cache in
// front, so the lane also exercises spec canonicalization and the
// hit/miss byte contract. Engines key separately (STREAM is
// engine-sensitive), so every engine really simulates.
var runner = func() *job.Runner {
	r := job.NewRunner()
	r.Cache = resultcache.OpenMemory(0)
	return r
}()

// renderMatrix runs the 2×2 slice on engine e and renders one line per
// scenario point: policy, latency, cycles, and the per-reason stall
// totals (names from the shared obs order, so a reason reorder shows up
// as a golden diff, not a silent misattribution).
func renderMatrix(e sim.Engine) (string, error) {
	slow := timing.DefaultLatencies()
	slow.LocalMiss *= 2
	slow.RemoteMiss *= 2

	var sb strings.Builder
	fmt.Fprintf(&sb, "STREAM Triad, 2 threads: policy × latency × stall breakdown\n")
	for _, pol := range []timing.Policy{timing.FineGrain{}, timing.SwitchOnMiss{Pen: 8}} {
		for _, lat := range []timing.LatencyModel{timing.DefaultLatencies(), slow} {
			p := stream.Params{
				Kernel: stream.Triad, Threads: 2, N: 320, Local: true, Reps: 2, Issue: pol,
			}
			spec, err := workloads.StreamSpec(p, kernel.Sequential)
			if err != nil {
				return "", fmt.Errorf("%s @ %s: %w", pol, lat, err)
			}
			cfg := lat.Apply(arch.Default())
			spec.Config = &cfg
			spec.Engine = e.String()
			res, err := runner.Run(spec)
			if err != nil {
				return "", fmt.Errorf("%s @ %s: %w", pol, lat, err)
			}
			r, err := workloads.StreamResult(p, res)
			if err != nil {
				return "", fmt.Errorf("%s @ %s: %w", pol, lat, err)
			}
			fmt.Fprintf(&sb, "%-13s %-18s cycles=%d run=%d stall=%d", pol, lat, r.BestCycles, r.Run, r.Stall)
			if r.Stalls.Total() != r.Stall {
				return "", fmt.Errorf("%s @ %s: buckets sum %d != stall %d", pol, lat, r.Stalls.Total(), r.Stall)
			}
			for i, name := range obs.ReasonNames() {
				if v := r.Stalls[i]; v != 0 {
					fmt.Fprintf(&sb, " %s=%d", name, v)
				}
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String(), nil
}
