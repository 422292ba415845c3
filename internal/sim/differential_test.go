package sim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
	"cyclops/internal/isa"
	"cyclops/internal/prof"
	"cyclops/internal/timing"
)

// The differential harness: the same program runs to completion on every
// engine — under the same issue policy and latency model — and
// everything observable: the run error, the statistics snapshot, and
// each unit's final PC, state and register file, must match
// byte-for-byte. The legacy interpreter is the oracle; the block engine
// must be indistinguishable from it.

// diffScenario is one (issue policy, latency model) point a differential
// case runs under.
type diffScenario struct {
	pol Policy
	lat timing.LatencyModel
}

func (s diffScenario) String() string {
	return s.pol.String() + "@" + s.lat.String()
}

// diffDefault is the seed behavior: fine-grained issue at Table 2.
func diffDefault() diffScenario {
	return diffScenario{pol: timing.FineGrain{}, lat: timing.DefaultLatencies()}
}

// diffLatencies are the latency points differential cases draw from:
// Table 2, slow misses, slow FPU, and a fast-hit/slow-burst point.
func diffLatencies() []timing.LatencyModel {
	pts := make([]timing.LatencyModel, 4)
	for i := range pts {
		pts[i] = timing.DefaultLatencies()
	}
	pts[1].LocalMiss, pts[1].RemoteMiss = 48, 72
	pts[2].FPU, pts[2].FMA = 10, 18
	pts[3].Load, pts[3].Burst = 3, 24
	return pts
}

// scenarioFor derives a scenario from two draws in [0, 255]: the policy
// family and penalty from polDraw, the latency point from latDraw. Both
// the seeded corpus and the fuzzer route through this, so every engine
// comparison exercises a deterministic (policy, latency) pair.
func scenarioFor(polDraw, latDraw int) diffScenario {
	pen := uint64(polDraw>>2)%16 + 1
	var pol Policy
	switch polDraw % 3 {
	case 0:
		pol = timing.FineGrain{}
	case 1:
		pol = timing.Blocked{Pen: pen}
	case 2:
		pol = timing.SwitchOnMiss{Pen: pen}
	}
	lats := diffLatencies()
	return diffScenario{pol: pol, lat: lats[latDraw%len(lats)]}
}

// diffRun assembles src and runs it on engine e under scenario sc with a
// tight cycle budget (random programs may loop forever; the identical
// cycle-limit error is then part of the compared state).
func diffRun(src string, e Engine, sc diffScenario) (*Machine, error) {
	return diffRunObserved(src, e, sc, false)
}

// diffRunObserved is diffRun, optionally with every observer attached: a
// TraceBuffer, a guest profiler and an interval timeline. Observers read
// the run; they must never change it.
func diffRunObserved(src string, e Engine, sc diffScenario, observed bool) (*Machine, error) {
	p, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	chip := core.MustNew(sc.lat.Apply(arch.Default()))
	m := New(chip, nil)
	m.SetEngine(e)
	m.SetPolicy(sc.pol)
	m.MaxCycles = 50_000
	if observed {
		m.Trace = NewTraceBuffer(64)
		m.AttachProfile(prof.New(7))
		m.AttachTimeline(prof.NewTimeline(50))
	}
	if err := chip.LoadImage(p.Origin, p.Bytes); err != nil {
		return nil, err
	}
	if err := m.Start(2, p.Entry); err != nil {
		return nil, err
	}
	return m, m.Run()
}

// diffState flattens a finished machine into a comparable string: run
// error, deterministic snapshot, and per-unit architectural state.
func diffState(m *Machine, err error) string {
	var sb strings.Builder
	if err != nil {
		fmt.Fprintf(&sb, "err=%v\n", err)
	}
	if m == nil {
		return sb.String()
	}
	if serr := m.Snapshot().WriteJSON(&sb); serr != nil {
		fmt.Fprintf(&sb, "snapshot-error=%v\n", serr)
	}
	for _, tu := range m.TUs {
		if tu.State == Idle && tu.Insts == 0 {
			continue
		}
		fmt.Fprintf(&sb, "tu%d state=%d pc=%#x insts=%d regs=%v\n",
			tu.ID, tu.State, tu.PC, tu.Insts, tu.Regs)
	}
	return sb.String()
}

// diffCompare runs src on both engines under scenario sc and fails the
// test if the block engine diverges from the legacy oracle — plain, or
// with every observer attached (observed and unobserved runs share one
// dispatch path, so observers must not move any compared state).
func diffCompare(t *testing.T, name, src string, sc diffScenario) {
	t.Helper()
	ref, refErr := diffRun(src, EngineLegacy, sc)
	want := diffState(ref, refErr)
	for _, observed := range []bool{false, true} {
		m, err := diffRunObserved(src, EngineBlock, sc, observed)
		if got := diffState(m, err); got != want {
			t.Fatalf("%s (%s, observed=%v): block engine diverges from legacy\nprogram:\n%s\n--- legacy ---\n%s--- block ---\n%s",
				name, sc, observed, src, want, got)
		}
	}
}

// The multi-unit variant starts 2–16 units on one program, so batches
// carry many units and the scheduler's tie order, port/bank/FPU
// contention, mid-batch halts and compaction, mid-batch spawns, sleeps
// beyond the calendar's horizon and traps with unreached units all
// decide the compared state.

// multiPool is the unit range a multi-unit run starts and spawns in.
const multiPool = 32

// unitsFor derives the units a multi-unit run starts at cycle 0, in
// start (active-list) order, from a draw in [0, 255]: 2–16 of the pool,
// scrambled.
func unitsFor(draw int) []int {
	return rand.New(rand.NewSource(int64(draw))).Perm(multiPool)[:2+draw%15]
}

// spawnSys is the multi-unit harness's stand-in kernel. A syscall with
// r4 = 1 starts the lowest idle unit of the pool at the program entry
// (a mid-batch spawn), at most four times per run; any other syscall
// sleeps r5 mod 512 + 1 cycles, so long sleeps wake from beyond the
// calendar's horizon.
type spawnSys struct {
	entry   uint32
	spawned int
}

func (s *spawnSys) Syscall(m *Machine, tu *TU) SysResult {
	if tu.Regs[isa.RArg0] != 1 {
		return SysResult{Cost: uint64(tu.Regs[isa.RArg1])%512 + 1}
	}
	for id := 0; id < multiPool && s.spawned < 4; id++ {
		if m.TUs[id].State == Idle {
			s.spawned++
			if err := m.Start(id, s.entry); err != nil {
				m.Trap("spawn: %v", err)
			}
			break
		}
	}
	return SysResult{Cost: 1}
}

// diffRunMulti is diffRun with the given units all started at the entry
// point and spawnSys as the kernel.
func diffRunMulti(src string, units []int, e Engine, sc diffScenario) (*Machine, error) {
	p, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	chip := core.MustNew(sc.lat.Apply(arch.Default()))
	m := New(chip, &spawnSys{entry: p.Entry})
	m.SetEngine(e)
	m.SetPolicy(sc.pol)
	m.MaxCycles = 200_000
	if err := chip.LoadImage(p.Origin, p.Bytes); err != nil {
		return nil, err
	}
	for _, id := range units {
		if err := m.Start(id, p.Entry); err != nil {
			return nil, err
		}
	}
	return m, m.Run()
}

// diffCompareMulti is diffCompare for a multi-unit run; it returns the
// legacy oracle's final cycle.
func diffCompareMulti(t *testing.T, name, src string, units []int, sc diffScenario) uint64 {
	t.Helper()
	ref, refErr := diffRunMulti(src, units, EngineLegacy, sc)
	want := diffState(ref, refErr)
	m, err := diffRunMulti(src, units, EngineBlock, sc)
	if got := diffState(m, err); got != want {
		t.Fatalf("%s (%s, units %v): block engine diverges from legacy\nprogram:\n%s\n--- legacy ---\n%s--- block ---\n%s",
			name, sc, units, src, want, got)
	}
	if ref == nil {
		return 0
	}
	return ref.Cycle()
}

// multiProgram emits a loop every unit runs with its own trip count
// (a base plus its thread id, so halts land mid-batch). The body mixes
// ALU work, mul and div, loads and stores over a shared 4 KiB window
// (misses, port and bank ties), atomics on one shared line, FP ops on
// the quad-shared FPU, forward skips, and now and then a spawn, a sleep
// past the calendar horizon, or an illegal word one unit hits mid-run.
// Data lives outside the image, so the program is code only.
func multiProgram(rng *rand.Rand) string {
	var sb strings.Builder
	reg := func() int { return 8 + rng.Intn(8) }
	fmt.Fprintf(&sb, "_start:\tmfspr r20, 0\n\tli r16, 0x10000\n\tli r18, 0x12000\n\taddi r22, r20, %d\n", 16+rng.Intn(64))
	sb.WriteString("loop:\n")
	skip := 0
	n := 4 + rng.Intn(12)
	for i := 0; i < n; i++ {
		switch rng.Intn(14) {
		case 0, 1:
			ops := []string{"add", "sub", "xor", "or", "slt", "sll"}
			fmt.Fprintf(&sb, "\t%s r%d, r%d, r%d\n", ops[rng.Intn(len(ops))], reg(), reg(), reg())
		case 2:
			fmt.Fprintf(&sb, "\taddi r%d, r%d, %d\n", reg(), reg(), rng.Intn(128)-64)
		case 3:
			fmt.Fprintf(&sb, "\t%s r%d, r%d, r22\n", []string{"mul", "div", "divu"}[rng.Intn(3)], reg(), reg())
		case 4, 5:
			fmt.Fprintf(&sb, "\tlw r%d, %d(r16)\n", reg(), 4*rng.Intn(1024))
		case 6:
			fmt.Fprintf(&sb, "\tsw r%d, %d(r16)\n", reg(), 4*rng.Intn(1024))
		case 7:
			fmt.Fprintf(&sb, "\t%s r%d, (r18), r%d\n", []string{"amoadd", "amoswap", "amocas"}[rng.Intn(3)], reg(), reg())
		case 8:
			fmt.Fprintf(&sb, "\tld d40, %d(r16)\n", 8*rng.Intn(512))
		case 9:
			d := func() int { return 40 + 2*rng.Intn(4) }
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&sb, "\tfma d%d, d%d, d%d, d%d\n", d(), d(), d(), d())
			} else {
				fmt.Fprintf(&sb, "\t%s d%d, d%d, d%d\n", []string{"fadd", "fmul", "fdiv"}[rng.Intn(3)], d(), d(), d())
			}
		case 10:
			fmt.Fprintf(&sb, "\tbeq r%d, r%d, S%d\n\taddi r%d, r%d, 1\nS%d:\n", reg(), reg(), skip, reg(), reg(), skip)
			skip++
		case 11:
			if rng.Intn(3) == 0 {
				sb.WriteString("\tli r4, 1\n\tsyscall\n")
			}
		case 12:
			if rng.Intn(3) == 0 {
				fmt.Fprintf(&sb, "\tli r4, 0\n\tli r5, %d\n\tsyscall\n", 200+rng.Intn(300))
			}
		case 13:
			if rng.Intn(4) == 0 {
				fmt.Fprintf(&sb, "\tli r23, %d\n\tbne r20, r23, S%d\n\tli r23, %d\n\tbne r22, r23, S%d\n\t.word 0xffffffff\nS%d:\n",
					rng.Intn(32), skip, 1+rng.Intn(8), skip, skip)
				skip++
			}
		}
	}
	sb.WriteString("\taddi r22, r22, -1\n\tbne r22, r0, loop\n\thalt\n")
	return sb.String()
}

// TestEngineDifferentialMultiUnit cross-checks the engines on seeded
// multi-unit programs under random scenarios. The corpus must run long
// enough for the clock to wrap the calendar ring many times.
func TestEngineDifferentialMultiUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(2002))
	var longest uint64
	for i := 0; i < 100; i++ {
		src := multiProgram(rng)
		if _, err := asm.Assemble(src); err != nil {
			t.Fatalf("multi program #%d: %v\n%s", i, err, src)
		}
		sc := scenarioFor(rng.Intn(256), rng.Intn(256))
		c := diffCompareMulti(t, fmt.Sprintf("multi program #%d", i), src, unitsFor(rng.Intn(256)), sc)
		longest = max(longest, c)
	}
	if longest < 8*calSlots {
		t.Errorf("longest run %d cycles: the corpus no longer wraps the calendar ring", longest)
	}
}

// randomProgram emits a short pseudo-random but valid program: ALU ops
// over r8..r15, conditional branches between real labels (mostly
// forward, so most programs terminate; the rest hit the cycle limit
// identically on every engine), loads and stores through a data window
// — and through small raw addresses, which smashes program text and
// exercises compiled-code invalidation — plus the occasional jal or
// kernel-less syscall trap.
func randomProgram(rng *rand.Rand) string {
	n := 5 + rng.Intn(36)
	nlabels := 1 + rng.Intn(4)
	labelAt := map[int]int{}
	for placed := 0; placed < nlabels; {
		p := rng.Intn(n)
		if _, dup := labelAt[p]; !dup {
			labelAt[p] = placed
			placed++
		}
	}
	reg := func() int { return 8 + rng.Intn(8) }
	var sb strings.Builder
	sb.WriteString("_start:\tla r16, data\n")
	for i := 0; i < n; i++ {
		if l, ok := labelAt[i]; ok {
			fmt.Fprintf(&sb, "L%d:", l)
		}
		switch rng.Intn(16) {
		case 0, 1, 2:
			ops := []string{"add", "sub", "and", "or", "xor", "nor", "slt", "sltu", "sll", "srl", "sra"}
			fmt.Fprintf(&sb, "\t%s r%d, r%d, r%d\n", ops[rng.Intn(len(ops))], reg(), reg(), reg())
		case 3, 4, 5:
			ops := []string{"addi", "andi", "ori", "xori", "slti"}
			fmt.Fprintf(&sb, "\t%s r%d, r%d, %d\n", ops[rng.Intn(len(ops))], reg(), reg(), rng.Intn(128)-64)
		case 6:
			fmt.Fprintf(&sb, "\t%s r%d, r%d, %d\n",
				[]string{"slli", "srli", "srai"}[rng.Intn(3)], reg(), reg(), rng.Intn(32))
		case 7:
			fmt.Fprintf(&sb, "\tlui r%d, %d\n", reg(), rng.Intn(1<<12))
		case 8:
			fmt.Fprintf(&sb, "\tmul r%d, r%d, r%d\n", reg(), reg(), reg())
		case 9, 10:
			fmt.Fprintf(&sb, "\tlw r%d, %d(r16)\n", reg(), 4*rng.Intn(16))
		case 11:
			fmt.Fprintf(&sb, "\tsw r%d, %d(r16)\n", reg(), 4*rng.Intn(16))
		case 12:
			// Store through a small raw address: usually lands in text.
			fmt.Fprintf(&sb, "\tsw r%d, %d(r0)\n", reg(), 4*rng.Intn(64))
		case 13, 14:
			ops := []string{"beq", "bne", "blt", "bge", "bltu", "bgeu"}
			fmt.Fprintf(&sb, "\t%s r%d, r%d, L%d\n", ops[rng.Intn(len(ops))], reg(), reg(), rng.Intn(nlabels))
		case 15:
			if rng.Intn(4) == 0 {
				sb.WriteString("\tsyscall\n") // no kernel: identical trap
			} else {
				fmt.Fprintf(&sb, "\tjal r%d, L%d\n", reg(), rng.Intn(nlabels))
			}
		}
	}
	sb.WriteString("\thalt\n")
	sb.WriteString("\t.align 64\ndata:\t.space 64\n")
	return sb.String()
}

// TestEngineDifferential cross-checks the engines on a fixed corpus of
// pseudo-random short programs (seeded, so failures reproduce), each
// under a random (policy, latency) scenario drawn from the same stream.
func TestEngineDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2002))
	for i := 0; i < 150; i++ {
		src := randomProgram(rng)
		sc := scenarioFor(rng.Intn(256), rng.Intn(256))
		diffCompare(t, fmt.Sprintf("program #%d", i), src, sc)
	}
}

// FuzzEngineDifferential drives the same oracle from raw instruction
// words: every byte pattern — legal or not — must behave identically on
// every engine, including trap messages and trap timing.
func FuzzEngineDifferential(f *testing.F) {
	seed := func(src string) []byte {
		p, err := asm.Assemble(src)
		if err != nil {
			f.Fatal(err)
		}
		return p.Bytes
	}
	f.Add(seed(`
_start:	li r8, 40
loop:	addi r8, r8, -1
	add r9, r9, r8
	xor r10, r9, r8
	bne r8, r0, loop
	halt
`))
	f.Add(seed(`
_start:	la r16, d
	lw r8, 0(r16)
	sw r8, 4(r16)
	halt
d:	.word 7
	.space 4
`))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	// Multi-unit generator programs short enough for the input cap.
	rng := rand.New(rand.NewSource(12))
	for added := 0; added < 2; {
		if b := seed(multiProgram(rng)); len(b) <= 256 {
			f.Add(b)
			added++
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 256 {
			t.Skip()
		}
		var sb strings.Builder
		sb.WriteString("_start:\n")
		for i := 0; i+4 <= len(data); i += 4 {
			fmt.Fprintf(&sb, "\t.word %d\n", binary.LittleEndian.Uint32(data[i:]))
		}
		sb.WriteString("\thalt\n")
		// The scenario derives from the input bytes, so the fuzzer also
		// explores the policy × latency plane and failures reproduce
		// from the corpus file alone.
		sc := scenarioFor(int(data[0]), int(data[len(data)-1]))
		diffCompare(t, "fuzz input", sb.String(), sc)
		// The same words as every unit's program in a multi-unit run.
		diffCompareMulti(t, "fuzz input (multi-unit)", sb.String(), unitsFor(int(data[1%len(data)])), sc)
	})
}
