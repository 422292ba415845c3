package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"cyclops/internal/core"
	"cyclops/internal/obs"
)

// referencePath is reference.json's place under the repository root.
const referencePath = "hostbench/reference.json"

// simStats are one simulated point's statistics. They depend only on
// the point's parameters (never on the host, the seed's input values or
// the operation order), so every run compares them for identity with
// reference.json: a change that only speeds the simulator up must leave
// them all unchanged.
type simStats struct {
	Cycles     uint64 `json:"cycles"`
	Insts      uint64 `json:"insts"`
	BestCycles uint64 `json:"best_cycles"`
	Run        uint64 `json:"run"`
	Stall      uint64 `json:"stall"`
	// Stalls and MemWaits are indexed by obs.StallReason and
	// obs.MemWaitKind.
	Stalls   obs.Breakdown `json:"stalls"`
	MemWaits obs.MemWaits  `json:"mem_waits"`
	// The counters Chip.Utilization reads: data-cache hits and misses,
	// cache-port and bank busy cycles, FPU operations, line fills and
	// write bursts.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	PortBusy    uint64 `json:"port_busy"`
	BankBusy    uint64 `json:"bank_busy"`
	FPUOps      uint64 `json:"fpu_ops"`
	LineFills   uint64 `json:"line_fills"`
	WriteBursts uint64 `json:"write_bursts"`
}

// readChip fills the chip-side counters.
func (s *simStats) readChip(c *core.Chip) {
	for q, d := range c.Data.Caches {
		s.CacheHits += d.Hits
		s.CacheMisses += d.Misses
		s.PortBusy += c.Data.PortBusy(q)
	}
	s.BankBusy = c.Mem.BusyCycles()
	for _, f := range c.FPUs {
		s.FPUOps += f.Ops
	}
	s.LineFills = c.Mem.LineFills
	s.WriteBursts = c.Mem.WriteBursts
}

// add accumulates o into s.
func (s *simStats) add(o simStats) {
	s.Cycles += o.Cycles
	s.Insts += o.Insts
	s.BestCycles += o.BestCycles
	s.Run += o.Run
	s.Stall += o.Stall
	s.Stalls.AddAll(o.Stalls)
	s.MemWaits.AddAll(o.MemWaits)
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.PortBusy += o.PortBusy
	s.BankBusy += o.BankBusy
	s.FPUOps += o.FPUOps
	s.LineFills += o.LineFills
	s.WriteBursts += o.WriteBursts
}

// reference maps a point ID to its recorded statistics.
type reference map[string]simStats

func loadReference(path string) (reference, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the reference statistics: %w", err)
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ref, nil
}

// check compares one point's statistics with the reference.
func (r reference) check(id string, got simStats) error {
	want, ok := r[id]
	if !ok {
		return fmt.Errorf("%s: no reference statistics (re-record with -record)", id)
	}
	if got != want {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		return fmt.Errorf("%s: simulated statistics differ from the reference:\n  got  %s\n  want %s", id, g, w)
	}
	return nil
}

// recordReference runs every point of every workload (the tiny sets
// too) once and rewrites reference.json.
func recordReference(root string) error {
	ref := reference{}
	for _, pts := range [][]streamPoint{schedPoints(false), schedPoints(true), memPoints(false), memPoints(true)} {
		for _, pt := range pts {
			if _, ok := ref[pt.id]; ok {
				continue
			}
			st, err := referenceStream(pt)
			if err != nil {
				return err
			}
			ref[pt.id] = st
		}
	}
	for _, pts := range [][]fftPoint{fftPoints(false), fftPoints(true)} {
		for _, pt := range pts {
			if _, ok := ref[pt.id]; ok {
				continue
			}
			st, err := referenceFFT(pt)
			if err != nil {
				return err
			}
			ref[pt.id] = st
		}
	}
	ids := make([]string, 0, len(ref))
	for id := range ref {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	// One point per line keeps a re-recording's diff readable.
	out := []byte("{\n")
	for i, id := range ids {
		line, err := json.Marshal(ref[id])
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(ids)-1 {
			sep = "\n"
		}
		out = append(out, fmt.Sprintf("  %q: %s%s", id, line, sep)...)
	}
	out = append(out, "}\n"...)
	return os.WriteFile(filepath.Join(root, referencePath), out, 0o644)
}
