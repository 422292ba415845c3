package cyclops_test

import (
	"fmt"
	"testing"

	"cyclops"
	"cyclops/internal/sim"
)

// dmaReloadSrc executes the instruction at patch:, DMA-reads a 1 KB
// off-chip block over the patch region (the off-chip image carries the
// same region assembled with a different constant), jumps back and
// re-executes. Every engine must notice the reload: the block engine's
// compiled code for the region is stale after the DMA, so a surviving
// block would write %[1]d instead of the reloaded constant.
const dmaReloadSrc = `
	la   r20, out
	li   r9, 0
run:	j    patch
cont:	bne  r9, r0, done
	li   r9, 1
	li   a0, 6		; SysOffChipRead: a1 = ext addr, a2 = emb dst
	li   a1, 0
	la   a2, patch
	syscall
	j    run
done:	sw   r11, 0(r20)
	halt
	.align 1024
patch:	addi r11, r0, %d	; the DMA'd block carries a different constant
	j    cont
	.space 1016
out:	.word 0
`

// TestEngineDMAReloadInvalidation checks that an off-chip DMA landing on
// executed text invalidates compiled blocks, and that both engines run
// the reloaded code. This is code overlay / out-of-core reload, the second
// writer (besides guest stores) behind mem.WatchCode's generation
// counter.
func TestEngineDMAReloadInvalidation(t *testing.T) {
	cfg := cyclops.DefaultConfig()
	cfg.OffChipBytes = 1 << 20

	assemble := func(val int) *cyclops.Program {
		t.Helper()
		p, err := cyclops.Assemble(fmt.Sprintf(dmaReloadSrc, val))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// The off-chip image: the patch region as it looks when its constant
	// is 42. Only the patched immediate differs, so the layouts match.
	donor := assemble(42)
	patch, ok := donor.Symbols["patch"]
	if !ok {
		t.Fatal("no patch symbol")
	}
	region := donor.Bytes[patch-donor.Origin : patch-donor.Origin+1024]

	for _, e := range sim.Engines() {
		t.Run(e.String(), func(t *testing.T) {
			sys, err := cyclops.NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sys.Machine().SetEngine(e)
			// Stage the replacement region into off-chip block 0 through
			// a scratch area well clear of the program image.
			const scratch = 0x200000
			if err := sys.Chip().Mem.Write(scratch, region); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Chip().OffChip.WriteBlock(0, sys.Chip().Mem, scratch, 0); err != nil {
				t.Fatal(err)
			}
			prog := assemble(7)
			sys.MaxCycles(2_000_000)
			if err := sys.Boot(prog); err != nil {
				t.Fatal(err)
			}
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			got, err := sys.ReadWord(prog.Symbols["out"])
			if err != nil {
				t.Fatal(err)
			}
			if got != 42 {
				t.Fatalf("%s: out = %d, want 42 (stale code survived the DMA reload)", e, got)
			}
			if e == sim.EngineBlock {
				if _, flushes := sys.Machine().BlockStats(); flushes == 0 {
					t.Fatal("DMA into compiled text did not flush the block cache")
				}
			}
		})
	}
}
