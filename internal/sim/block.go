package sim

import (
	"cyclops/internal/arch"
	"cyclops/internal/isa"
	"cyclops/internal/timing"
)

// The block-compiling engine. The legacy interpreter pays a fetch, a
// decode and one trip through the big issue switch per instruction; for
// long-lived loops that dispatch is the dominant host-side cost. This
// engine discovers basic blocks at runtime (block boundaries are
// isa.EndsBlock, the same definition internal/vet's CFG uses for
// leaders), translates each block once into a slice of pre-bound Go
// closures — threaded code — and runs closure after closure, block after
// block, without returning to the scheduler, for as long as the thread
// unit is provably the only one due. The hot ops (single-cycle ALU,
// conditional branches, lw/ld/sw) compile to fully specialized closures:
// one indirect call per instruction, everything else straight-line.
//
// Timing stays exact by construction, not by approximation:
//
//   - Every closure drives the shared timing.Ledger exactly as the
//     per-issue legacy engine does (ChargeRun, WaitReady,
//     ChargeMemStall, ObserveAccess), so every table, snapshot and
//     profile is byte-identical across engines.
//   - Ops are 1:1 with instructions and there is one dispatch path: each
//     issue attempt is one op call from stepBlock, observed or not, and
//     replicates one scheduler iteration. Inline continuation advances
//     m.cycle, bumps the round-robin counter and ticks the timeline
//     exactly as a trip through Run's outer loop would, and is only
//     taken when the calendar's minimum proves no other unit is due
//     first.
//   - Multi-unit batches fall back to one issue per unit per cycle, the
//     legacy engine's exact regime, so contention, tie order and
//     compaction are untouched.
//
// Each text word is read and decoded once, when the block holding it
// compiles, and every compiled block registers exactly the words it
// covers with mem.WatchCode. A write overlapping them — a self-modifying
// store, a DMA or program reload — bumps the memory's code generation,
// which stepBlock re-reads before every op and which flushes every
// compiled block (flushBlocks) when it moves. Data next to the text,
// even on the same page, stays outside the watch, so ordinary stores
// never flush.

// opFn executes one issue attempt at cycle; the closure performs the
// instruction's scoreboard wait, charges, effects and PC advance.
type opFn func(m *Machine, tu *TU, cycle uint64)

// simBlock is one compiled basic block covering text [base, end).
type simBlock struct {
	base, end uint32
	ops       []opFn
}

// maxBlockOps caps a block when no isa.EndsBlock instruction shows up
// (straight-line code running into data); continuation past the cap just
// enters the next block.
const maxBlockOps = 256

// stepBlock issues instructions for tu starting at the current cycle and
// continues inline — op after op, block after block — while the issue
// limit and the calendar allow it. Run calls it for the block engine.
// limit is the first cycle the unit may NOT issue at inline (the batch
// cycle itself when other units issued this cycle; unbounded when the
// unit is alone).
func (m *Machine) stepBlock(tu *TU, limit uint64) {
	memory := m.Chip.Mem
	tl := m.TL
	blk := tu.blk
	for {
		// Any op may have stored into text, and on entry another unit's
		// batch may have: re-read the code generation before every op.
		if g := memory.CodeGen(); g != m.blockGen {
			m.blockGen = g
			m.flushBlocks()
			blk = nil
		}
		pc := tu.PC
		if tu.Samp != nil {
			tu.Samp.SetPC(pc)
		}
		if tu.pib.contains(pc) {
			if blk == nil || pc-blk.base >= blk.end-blk.base {
				blk = m.blockFor(pc)
				tu.blk = blk
			}
			blk.ops[(pc-blk.base)>>2](m, tu, m.cycle)
			if m.trap != nil || tu.State != Running {
				return
			}
		} else {
			m.fetchPIB(tu, m.cycle)
		}
		// Inline continuation: replicate one trip through the scheduler's
		// outer loop, legal only when this unit is provably the next (and
		// only) one due. Every attempt above advanced nextAt past the
		// cycle it issued at, so each inline step is exactly one
		// scheduler iteration: same cycle advance, same round-robin
		// increment, same timeline tick.
		next := tu.nextAt
		if next >= limit {
			return
		}
		if m.cal.min <= next {
			return
		}
		if m.MaxCycles > 0 && next > m.MaxCycles {
			// The outer loop raises the identical cycle-limit error.
			return
		}
		m.cycle = next
		m.rr++
		if tl != nil {
			m.tickTimeline()
		}
	}
}

// blockFor returns (compiling on demand) the block whose base is pc.
// Mid-block jump targets simply compile an overlapping suffix block —
// the ops are position-independent, so the duplication is memory, not
// semantics.
func (m *Machine) blockFor(pc uint32) *simBlock {
	if b := m.blocks[pc]; b != nil {
		return b
	}
	b := m.compileBlock(pc)
	if m.blocks == nil {
		m.blocks = make(map[uint32]*simBlock)
	}
	m.blocks[pc] = b
	return b
}

// flushBlocks drops every compiled block and per-unit block hint. Called
// when the memory's code generation moves: a write landed in compiled
// text.
func (m *Machine) flushBlocks() {
	if m.blocks != nil {
		m.blocks = nil
		m.blockFlushes++
	}
	for _, tu := range m.TUs {
		tu.blk = nil
	}
}

// Precompile compiles blocks for the given leader PCs (typically
// vet.Leaders of the loaded program) ahead of execution. Compilation has
// no timing effect — it only fills host-side caches — so this is purely
// a warm-up; lazily discovered blocks behave identically. The legacy
// engine ignores it.
func (m *Machine) Precompile(pcs []uint32) {
	if m.engine != EngineBlock {
		return
	}
	if g := m.Chip.Mem.CodeGen(); g != m.blockGen {
		m.blockGen = g
		m.flushBlocks()
	}
	for _, pc := range pcs {
		if pc%4 == 0 {
			m.blockFor(pc)
		}
	}
}

// compileBlock translates the straight-line run starting at base into
// ops, stopping after the first isa.EndsBlock instruction, at the first
// unfetchable or illegal word (compiled to a trap op that fires only if
// execution reaches it), or at the op cap. It watches exactly the words
// it compiled, trap word included.
func (m *Machine) compileBlock(base uint32) *simBlock {
	m.blockCompiles++
	b := &simBlock{base: base}
	pc := base
	for len(b.ops) < maxBlockOps {
		word, err := m.Chip.Mem.Read32(pc)
		in := isa.Decode(word)
		if err != nil || in.Op == isa.OpInvalid {
			b.ops = append(b.ops, trapOp(pc, word, err))
			break
		}
		b.ops = append(b.ops, m.compileOp(pc, in, word))
		if isa.EndsBlock(in) {
			break
		}
		pc += 4
	}
	b.end = base + uint32(4*len(b.ops))
	m.Chip.Mem.WatchCode(base, b.end)
	return b
}

// trapOp reproduces the per-issue fetch path's trap lazily: compilation
// runs ahead of execution, so an illegal word only traps if the program
// actually reaches it.
func trapOp(pc, word uint32, err error) opFn {
	return func(m *Machine, tu *TU, cycle uint64) {
		if err != nil {
			m.Trap("sim: thread %d: fetch at %#x: %v", tu.ID, pc, err)
		} else {
			m.Trap("sim: thread %d: illegal instruction %#08x at %#x", tu.ID, word, pc)
		}
	}
}

// compileOp translates one instruction into its closure: a fully
// specialized form for the hot ALU/branch/memory ops, or a generic op
// that calls the shared issue path — semantically identical to the
// legacy engine by construction.
func (m *Machine) compileOp(pc uint32, in isa.Inst, word uint32) opFn {
	lat := &m.Chip.Cfg.Latencies
	if fn := compileALU(pc, in, word); fn != nil {
		return fn
	}
	if fn := compileBranch(pc, in, word, uint64(lat.BranchExec)); fn != nil {
		return fn
	}
	switch in.Op {
	case isa.OpJAL:
		return mkJAL(pc, word, in.A, pc+4+uint32(in.Imm)*4, uint64(lat.BranchExec))
	case isa.OpJALR:
		return mkJALR(pc, word, in.A, in.B, uint32(in.Imm), uint64(lat.BranchExec))
	case isa.OpLW:
		return mkLW(pc, word, in.A, in.B, uint32(in.Imm), uint64(lat.MemExec))
	case isa.OpLD:
		return mkLD(pc, word, in.A, in.B, uint32(in.Imm), uint64(lat.MemExec))
	case isa.OpSW:
		return mkSW(pc, word, in.A, in.B, uint32(in.Imm), uint64(lat.MemExec))
	}
	info := isa.InfoRef(in.Op)
	return func(m *Machine, tu *TU, cycle uint64) {
		m.issue(tu, in, info, word, cycle)
	}
}

// compileALU builds the complete closure for a single-cycle integer op
// (the ClassOther ALU set: register, immediate and lui forms), nil for
// anything else. Multiplies, divides, SPR moves, sync and syscall are
// not simple — they have latencies, traps or side effects — and stay on
// the generic path. Each closure is deliberately self-contained
// straight-line code: the dispatch pays exactly one indirect call per
// instruction. The bodies all follow the issue path's shape — scoreboard
// wait, Insts++, optional trace record, effect at cyc+1, ChargeRun(1),
// nextAt, PC — so each commits byte-identical ledger state.
func compileALU(pc uint32, in isa.Inst, word uint32) opFn {
	a, b, c := in.A, in.B, in.C
	imm := in.Imm
	uimm := uint32(in.Imm)
	sh := uimm & 31
	switch in.Op {
	case isa.OpADD:
		return func(m *Machine, tu *TU, cyc uint64) {
			if r := timing.MaxReady(tu.regReady(b), tu.regReady(c)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, tu.reg(b)+tu.reg(c), cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
		}
	case isa.OpSUB:
		return func(m *Machine, tu *TU, cyc uint64) {
			if r := timing.MaxReady(tu.regReady(b), tu.regReady(c)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, tu.reg(b)-tu.reg(c), cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
		}
	case isa.OpAND:
		return func(m *Machine, tu *TU, cyc uint64) {
			if r := timing.MaxReady(tu.regReady(b), tu.regReady(c)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, tu.reg(b)&tu.reg(c), cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
		}
	case isa.OpOR:
		return func(m *Machine, tu *TU, cyc uint64) {
			if r := timing.MaxReady(tu.regReady(b), tu.regReady(c)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, tu.reg(b)|tu.reg(c), cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
		}
	case isa.OpXOR:
		return func(m *Machine, tu *TU, cyc uint64) {
			if r := timing.MaxReady(tu.regReady(b), tu.regReady(c)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, tu.reg(b)^tu.reg(c), cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
		}
	case isa.OpNOR:
		return func(m *Machine, tu *TU, cyc uint64) {
			if r := timing.MaxReady(tu.regReady(b), tu.regReady(c)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, ^(tu.reg(b) | tu.reg(c)), cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
		}
	case isa.OpSLL:
		return func(m *Machine, tu *TU, cyc uint64) {
			if r := timing.MaxReady(tu.regReady(b), tu.regReady(c)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, tu.reg(b)<<(tu.reg(c)&31), cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
		}
	case isa.OpSRL:
		return func(m *Machine, tu *TU, cyc uint64) {
			if r := timing.MaxReady(tu.regReady(b), tu.regReady(c)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, tu.reg(b)>>(tu.reg(c)&31), cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
		}
	case isa.OpSRA:
		return func(m *Machine, tu *TU, cyc uint64) {
			if r := timing.MaxReady(tu.regReady(b), tu.regReady(c)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, uint32(int32(tu.reg(b))>>(tu.reg(c)&31)), cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
		}
	case isa.OpSLT:
		return func(m *Machine, tu *TU, cyc uint64) {
			if r := timing.MaxReady(tu.regReady(b), tu.regReady(c)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, boolBit(int32(tu.reg(b)) < int32(tu.reg(c))), cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
		}
	case isa.OpSLTU:
		return func(m *Machine, tu *TU, cyc uint64) {
			if r := timing.MaxReady(tu.regReady(b), tu.regReady(c)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, boolBit(tu.reg(b) < tu.reg(c)), cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
		}
	case isa.OpADDI:
		return func(m *Machine, tu *TU, cyc uint64) {
			if r := tu.regReady(b); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, tu.reg(b)+uimm, cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
		}
	case isa.OpANDI:
		return func(m *Machine, tu *TU, cyc uint64) {
			if r := tu.regReady(b); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, tu.reg(b)&uimm, cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
		}
	case isa.OpORI:
		return func(m *Machine, tu *TU, cyc uint64) {
			if r := tu.regReady(b); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, tu.reg(b)|uimm, cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
		}
	case isa.OpXORI:
		return func(m *Machine, tu *TU, cyc uint64) {
			if r := tu.regReady(b); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, tu.reg(b)^uimm, cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
		}
	case isa.OpSLLI:
		return func(m *Machine, tu *TU, cyc uint64) {
			if r := tu.regReady(b); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, tu.reg(b)<<sh, cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
		}
	case isa.OpSRLI:
		return func(m *Machine, tu *TU, cyc uint64) {
			if r := tu.regReady(b); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, tu.reg(b)>>sh, cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
		}
	case isa.OpSRAI:
		return func(m *Machine, tu *TU, cyc uint64) {
			if r := tu.regReady(b); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, uint32(int32(tu.reg(b))>>sh), cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
		}
	case isa.OpSLTI:
		return func(m *Machine, tu *TU, cyc uint64) {
			if r := tu.regReady(b); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, boolBit(int32(tu.reg(b)) < imm), cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
		}
	case isa.OpSLTIU:
		return func(m *Machine, tu *TU, cyc uint64) {
			if r := tu.regReady(b); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, boolBit(tu.reg(b) < uimm), cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
		}
	case isa.OpLUI:
		return func(m *Machine, tu *TU, cyc uint64) {
			tu.Insts++ // FmtU: no sources, never waits
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.setReg(a, uimm<<13, cyc+1)
			tu.ChargeRun(1)
			tu.nextAt = cyc + 1
			tu.PC = pc + 4
		}
	}
	return nil
}

// compileBranch builds the complete closure for a conditional branch,
// nil for any other op.
func compileBranch(pc uint32, in isa.Inst, word uint32, be uint64) opFn {
	ra, rb := in.A, in.B
	target := pc + 4 + uint32(in.Imm)*4
	switch in.Op {
	case isa.OpBEQ:
		return func(m *Machine, tu *TU, cyc uint64) {
			if r := timing.MaxReady(tu.regReady(ra), tu.regReady(rb)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.ChargeRun(be)
			tu.nextAt = cyc + be
			if tu.reg(ra) == tu.reg(rb) {
				tu.PC = target
				return
			}
			tu.PC = pc + 4
		}
	case isa.OpBNE:
		return func(m *Machine, tu *TU, cyc uint64) {
			if r := timing.MaxReady(tu.regReady(ra), tu.regReady(rb)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.ChargeRun(be)
			tu.nextAt = cyc + be
			if tu.reg(ra) != tu.reg(rb) {
				tu.PC = target
				return
			}
			tu.PC = pc + 4
		}
	case isa.OpBLT:
		return func(m *Machine, tu *TU, cyc uint64) {
			if r := timing.MaxReady(tu.regReady(ra), tu.regReady(rb)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.ChargeRun(be)
			tu.nextAt = cyc + be
			if int32(tu.reg(ra)) < int32(tu.reg(rb)) {
				tu.PC = target
				return
			}
			tu.PC = pc + 4
		}
	case isa.OpBGE:
		return func(m *Machine, tu *TU, cyc uint64) {
			if r := timing.MaxReady(tu.regReady(ra), tu.regReady(rb)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.ChargeRun(be)
			tu.nextAt = cyc + be
			if int32(tu.reg(ra)) >= int32(tu.reg(rb)) {
				tu.PC = target
				return
			}
			tu.PC = pc + 4
		}
	case isa.OpBLTU:
		return func(m *Machine, tu *TU, cyc uint64) {
			if r := timing.MaxReady(tu.regReady(ra), tu.regReady(rb)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.ChargeRun(be)
			tu.nextAt = cyc + be
			if tu.reg(ra) < tu.reg(rb) {
				tu.PC = target
				return
			}
			tu.PC = pc + 4
		}
	case isa.OpBGEU:
		return func(m *Machine, tu *TU, cyc uint64) {
			if r := timing.MaxReady(tu.regReady(ra), tu.regReady(rb)); r > cyc {
				tu.nextAt = tu.WaitReady(cyc, r)
				return
			}
			tu.Insts++
			if m.Trace != nil {
				m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
			}
			tu.ChargeRun(be)
			tu.nextAt = cyc + be
			if tu.reg(ra) >= tu.reg(rb) {
				tu.PC = target
				return
			}
			tu.PC = pc + 4
		}
	}
	return nil
}

func mkJAL(pc, word uint32, a uint8, target uint32, be uint64) opFn {
	return func(m *Machine, tu *TU, cyc uint64) {
		tu.Insts++ // FmtJ: no sources, issues immediately
		if m.Trace != nil {
			m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
		}
		tu.setReg(a, pc+4, cyc+2)
		if tu.Samp != nil && a != isa.RZero {
			tu.Samp.Call(target)
		}
		tu.ChargeRun(be)
		tu.nextAt = cyc + be
		tu.PC = target
	}
}

func mkJALR(pc, word uint32, a, b uint8, imm uint32, be uint64) opFn {
	return func(m *Machine, tu *TU, cyc uint64) {
		if r := tu.regReady(b); r > cyc {
			tu.nextAt = tu.WaitReady(cyc, r)
			return
		}
		tu.Insts++
		if m.Trace != nil {
			m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
		}
		t := tu.reg(b) + imm
		tu.setReg(a, pc+4, cyc+2)
		if t%4 != 0 {
			m.Trap("sim: thread %d: jalr to unaligned %#x at %#x", tu.ID, t, pc)
			tu.ChargeRun(be)
			tu.nextAt = cyc + be
			return
		}
		if tu.Samp != nil {
			if a != isa.RZero {
				tu.Samp.Call(t)
			} else {
				tu.Samp.Ret()
			}
		}
		tu.ChargeRun(be)
		tu.nextAt = cyc + be
		tu.PC = t
	}
}

func mkLW(pc, word uint32, a, b uint8, imm uint32, memExec uint64) opFn {
	return func(m *Machine, tu *TU, cyc uint64) {
		if r := tu.regReady(b); r > cyc {
			tu.nextAt = tu.WaitReady(cyc, r)
			return
		}
		tu.Insts++
		if m.Trace != nil {
			m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
		}
		ea := tu.reg(b) + imm
		phys := arch.Phys(ea)
		if phys%4 != 0 {
			m.Trap("sim: thread %d: unaligned %d-byte access to %#x at pc %#x", tu.ID, 4, ea, pc)
			return
		}
		v, err := m.Chip.Mem.Read32(phys &^ 3)
		if err != nil {
			m.Trap("sim: thread %d: %v at pc %#x", tu.ID, err, pc)
			return
		}
		acc := m.Chip.Data.Load(cyc, ea, 4, tu.Quad)
		tu.setReg(a, v, acc.Done)
		tu.ObserveAccess(acc)
		tu.ChargeRun(memExec)
		// Loads free the thread at cyc+1; SettleAccess also applies the
		// policy's miss-switch penalty, same as the generic issue path.
		tu.nextAt = tu.SettleAccess(acc, cyc+memExec, cyc+1)
		tu.PC = pc + 4
	}
}

func mkLD(pc, word uint32, a, b uint8, imm uint32, memExec uint64) opFn {
	return func(m *Machine, tu *TU, cyc uint64) {
		if r := tu.regReady(b); r > cyc {
			tu.nextAt = tu.WaitReady(cyc, r)
			return
		}
		tu.Insts++
		if m.Trace != nil {
			m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
		}
		ea := tu.reg(b) + imm
		phys := arch.Phys(ea)
		if phys%8 != 0 {
			m.Trap("sim: thread %d: unaligned %d-byte access to %#x at pc %#x", tu.ID, 8, ea, pc)
			return
		}
		if !FRegOK(a) {
			m.Trap("sim: thread %d: ld destination r%d not a pair at %#x", tu.ID, a, pc)
			return
		}
		v, err := m.Chip.Mem.Read64(phys)
		if err != nil {
			m.Trap("sim: thread %d: %v at pc %#x", tu.ID, err, pc)
			return
		}
		acc := m.Chip.Data.Load(cyc, ea, 8, tu.Quad)
		tu.setReg(a, uint32(v), acc.Done)
		tu.setReg(a+1, uint32(v>>32), acc.Done)
		tu.ObserveAccess(acc)
		tu.ChargeRun(memExec)
		tu.nextAt = tu.SettleAccess(acc, cyc+memExec, cyc+1)
		tu.PC = pc + 4
	}
}

func mkSW(pc, word uint32, a, b uint8, imm uint32, memExec uint64) opFn {
	return func(m *Machine, tu *TU, cyc uint64) {
		if r := timing.MaxReady(tu.regReady(a), tu.regReady(b)); r > cyc {
			tu.nextAt = tu.WaitReady(cyc, r)
			return
		}
		tu.Insts++
		if m.Trace != nil {
			m.Trace.record(TraceEntry{Cycle: cyc, TID: tu.ID, PC: pc, Word: word})
		}
		ea := tu.reg(b) + imm
		phys := arch.Phys(ea)
		if phys%4 != 0 {
			m.Trap("sim: thread %d: unaligned %d-byte access to %#x at pc %#x", tu.ID, 4, ea, pc)
			return
		}
		if err := m.Chip.Mem.Write32(phys, tu.reg(a)); err != nil {
			m.Trap("sim: thread %d: %v at pc %#x", tu.ID, err, pc)
			return
		}
		// A store into watched text bumps the code generation, which the
		// dispatch loop re-reads before the next op, so a store can never
		// execute stale compiled code — not even in its own block.
		acc := m.Chip.Data.Store(cyc, ea, 4, tu.Quad)
		tu.ObserveAccess(acc)
		tu.ChargeRun(memExec)
		tu.nextAt = tu.SettleAccess(acc, cyc+memExec, acc.Done)
		tu.PC = pc + 4
	}
}
