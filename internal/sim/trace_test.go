package sim

import (
	"strings"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
)

func tracedRun(t *testing.T, src string, buf *TraceBuffer) *Machine {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	chip := core.MustNew(arch.Default())
	m := New(chip, nil)
	m.MaxCycles = 100_000
	m.Trace = buf
	chip.LoadImage(p.Origin, p.Bytes)
	m.Start(2, p.Entry)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTraceRecordsIssues(t *testing.T) {
	buf := NewTraceBuffer(64)
	tracedRun(t, `
	li  r8, 3
	add r9, r8, r8
	halt
	`, buf)
	if buf.Len() != 3 {
		t.Fatalf("trace holds %d entries, want 3", buf.Len())
	}
	dump := buf.Dump()
	for _, want := range []string{"addi r8, r0, 3", "add r9, r8, r8", "halt", "t002"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
	// Cycles are nondecreasing.
	es := buf.Entries()
	for i := 1; i < len(es); i++ {
		if es[i].Cycle < es[i-1].Cycle {
			t.Error("trace out of order")
		}
	}
}

func TestTraceRingWraps(t *testing.T) {
	buf := NewTraceBuffer(8)
	tracedRun(t, `
	li   r10, 20
loop:	addi r10, r10, -1
	bne  r10, r0, loop
	halt
	`, buf)
	if buf.Len() != 8 {
		t.Fatalf("ring holds %d, want capacity 8", buf.Len())
	}
	es := buf.Entries()
	// The last entry must be the halt; the oldest entries were dropped.
	last := es[len(es)-1]
	if !strings.Contains(last.String(), "halt") {
		t.Errorf("last traced instruction = %s, want halt", last)
	}
}

func TestTraceBufferMinCapacity(t *testing.T) {
	buf := NewTraceBuffer(0)
	buf.record(TraceEntry{TID: 1})
	if buf.Len() != 1 {
		t.Error("zero-capacity buffer unusable")
	}
}
