package sim

import (
	"testing"

	"cyclops/internal/asm"
)

// smcSrc executes the instruction at patch: (so it lands in a compiled
// block), overwrites it with a store, jumps back, and records what the
// second pass computed. The block engine must notice the store into
// compiled text — a stale block would write 7 instead of 42.
const smcSrc = `
	la   r20, out
	la   r21, patch
	la   r22, tmpl
	li   r9, 0
patch:	addi r11, r0, 7		; executed twice; rewritten between passes
	bne  r9, r0, done
	li   r9, 1
	lw   r10, 0(r22)	; template word: "addi r11, r0, 42"
	sw   r10, 0(r21)	; store into text -> must flush the compiled blocks
	j    patch
done:	sw   r11, 0(r20)
	halt
tmpl:	addi r11, r0, 42
out:	.space 4
`

// smcNextSrc stores over the very next word of its own block: the load,
// the store and the patched word compile into one block before the
// store runs, so the block engine must flush mid-block and execute the
// new word, not the compiled "addi r11, r0, 7".
const smcNextSrc = `
	la   r20, out
	la   r21, next
	la   r22, tmpl
	lw   r10, 0(r22)	; template word: "addi r11, r0, 42"
	sw   r10, 0(r21)	; store into the next word of this block
next:	addi r11, r0, 7		; rewritten before it first issues
	sw   r11, 0(r20)
	halt
tmpl:	addi r11, r0, 42
out:	.space 4
`

// TestSelfModifyingCode checks the WatchCode invalidation property on
// both engines: the legacy interpreter (which re-reads memory each issue
// and so is correct trivially — the pinned reference) and the block
// engine (stale compiled blocks must flush and recompile), for a store
// into an already-executed block and one into the storing block itself.
func TestSelfModifyingCode(t *testing.T) {
	progs := []struct{ name, src string }{
		{"earlier block", smcSrc},
		{"own block", smcNextSrc},
	}
	for _, e := range Engines() {
		t.Run(e.String(), func(t *testing.T) {
			for _, pr := range progs {
				p, err := asm.Assemble(pr.src)
				if err != nil {
					t.Fatal(err)
				}
				m, err := tryRunEngine(pr.src, e)
				if err != nil {
					t.Fatalf("%s: %v", pr.name, err)
				}
				switch e {
				case EngineLegacy:
					if m.blocks != nil {
						t.Fatalf("%s: legacy engine populated the block cache", pr.name)
					}
				case EngineBlock:
					if m.blocks == nil {
						t.Fatalf("%s: block cache was never populated (wrong engine path taken?)", pr.name)
					}
					if m.blockFlushes == 0 {
						t.Fatalf("%s: store into compiled text did not flush the block cache", pr.name)
					}
				}
				if got := word(t, m, p.Symbols["out"]); got != 42 {
					t.Fatalf("%s on %s: out = %d, want 42 (stale code executed)", pr.name, e, got)
				}
			}
		})
	}
}

// dataSrc stores to out on every iteration of loop. out sits right after
// the text, on the same 1 KB page, but no block ever compiles it.
const dataSrc = `
	la   r20, out
	li   r8, 100
	li   r9, 0
loop:	addi r9, r9, 3
	sw   r9, 0(r20)	; data store next to compiled text
	addi r8, r8, -1
	bne  r8, r0, loop
	halt
out:	.space 4
`

// TestCodeWatchIsExact checks the code watch covers exactly the
// compiled words: stores to a data word that shares a page with the
// text must neither flush the compiled blocks nor disturb the result.
func TestCodeWatchIsExact(t *testing.T) {
	p, err := asm.Assemble(dataSrc)
	if err != nil {
		t.Fatal(err)
	}
	out, loop := p.Symbols["out"], p.Symbols["loop"]
	if out>>10 != loop>>10 {
		t.Fatalf("out %#x and loop %#x are on different 1 KB pages; the test needs them on one", out, loop)
	}
	m := runEngine(t, dataSrc, EngineBlock)
	if got := word(t, m, out); got != 300 {
		t.Fatalf("out = %d, want 300", got)
	}
	compiles, flushes := m.BlockStats()
	if compiles == 0 {
		t.Fatal("no block compiled (wrong engine path taken?)")
	}
	if flushes != 0 {
		t.Fatalf("%d block flushes from stores outside the compiled text, want 0", flushes)
	}
}
