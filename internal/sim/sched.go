package sim

import "math/bits"

// calendar queues the event-driven engines' running units by next issue
// cycle: a ring of calSlots cycle slots, each a bitmap over active-list
// positions, plus an overflow list for wakeups beyond the ring's horizon.
// Every ring unit is due within calSlots cycles, so a slot names exactly
// one cycle and a push sets one bit. Reading the due slot from bit
// rr mod n onward, wrapping, yields the legacy engine's tie order —
// positions (i+rr) mod n, i ascending — by construction.
type calendar struct {
	words  int      // bitmap words per slot, sized from the thread count
	ring   []uint64 // calSlots × words position bitmaps
	occ    [calSlots / 64]uint64
	inRing int
	over   []*TU
	// overMin is the earliest nextAt in over, min the earliest queued
	// anywhere; both are ^0 when empty.
	overMin, min uint64
}

// calSlots covers Table 2's latencies plus a memory round trip under
// every shipped latency scenario; sleeps and slow syscalls overflow.
const (
	calSlots = 256
	calMask  = calSlots - 1
)

func newCalendar(threads int) calendar {
	w := (threads + 63) / 64
	return calendar{words: w, ring: make([]uint64, calSlots*w), overMin: ^uint64(0), min: ^uint64(0)}
}

// push queues tu at tu.nextAt, which must not precede now.
func (q *calendar) push(tu *TU, now uint64) {
	t := tu.nextAt
	q.min = min(q.min, t)
	if t-now >= calSlots {
		q.over = append(q.over, tu)
		q.overMin = min(q.overMin, t)
		return
	}
	s := int(t & calMask)
	q.ring[s*q.words+tu.pos>>6] |= 1 << (tu.pos & 63)
	q.occ[s>>6] |= 1 << (s & 63)
	q.inRing++
}

// pop appends the units due at c (which must be q.min) to batch in the
// legacy tie order for rotation rr, and dequeues them.
func (q *calendar) pop(c uint64, active []*TU, rr int, batch []*TU) []*TU {
	if q.overMin < c+calSlots {
		q.migrate(c)
	}
	s := int(c & calMask)
	w := q.ring[s*q.words : (s+1)*q.words]
	due := 0
	for _, x := range w {
		due += bits.OnesCount64(x)
	}
	// Scan from bit r: the rest of its word, the words after it with
	// wraparound, then its word's bits below r. A lone unit needs no
	// rotation, nor its division.
	r := 0
	if due > 1 {
		r = rr % len(active)
	}
	i := r >> 6
	first, high := w[i], ^uint64(0)<<(r&63)
	for k := 0; k <= len(w); k++ {
		b := w[i]
		if k == 0 {
			b = first & high
		} else if k == len(w) {
			b = first &^ high
		}
		w[i] = 0
		for ; b != 0; b &= b - 1 {
			batch = append(batch, active[i<<6+bits.TrailingZeros64(b)])
		}
		if i++; i == len(w) {
			i = 0
		}
	}
	q.occ[s>>6] &^= 1 << (s & 63)
	q.inRing -= due
	q.min = q.overMin
	if q.inRing > 0 {
		// The ring's earliest unit sits in the first occupied slot after
		// s, wrapping past the ring's last slot.
		next := (s + 1) & calMask
		j := next >> 6
		b := q.occ[j] & (^uint64(0) << (next & 63))
		for b == 0 {
			j = (j + 1) % len(q.occ)
			b = q.occ[j]
		}
		q.min = min(q.min, c+uint64((j<<6+bits.TrailingZeros64(b)-s)&calMask))
	}
	return batch
}

// migrate moves the overflow units now within the horizon of c into the
// ring, before their slot is read.
func (q *calendar) migrate(c uint64) {
	keep := q.over[:0]
	q.overMin = ^uint64(0)
	for _, tu := range q.over {
		if tu.nextAt-c < calSlots {
			q.push(tu, c)
		} else {
			keep = append(keep, tu)
			q.overMin = min(q.overMin, tu.nextAt)
		}
	}
	clear(q.over[len(keep):])
	q.over = keep
}

// rebuild requeues every active unit after compaction renumbered their
// positions; halts are rare, so an O(active) pass is cheap.
func (q *calendar) rebuild(active []*TU, now uint64) {
	clear(q.ring)
	clear(q.over)
	*q = calendar{words: q.words, ring: q.ring, over: q.over[:0], overMin: ^uint64(0), min: ^uint64(0)}
	for _, tu := range active {
		q.push(tu, now)
	}
}
