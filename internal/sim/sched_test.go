package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
)

// calUnits returns n bare thread units at active positions 0..n-1.
func calUnits(n int) []*TU {
	tus := make([]*TU, n)
	for i := range tus {
		tus[i] = &TU{ID: i, pos: i, State: Running}
	}
	return tus
}

// pushAt queues the units at positions pos, due at cycle t, pushed at now.
func pushAt(q *calendar, active []*TU, now, t uint64, pos ...int) {
	for _, p := range pos {
		active[p].nextAt = t
		q.push(active[p], now)
	}
}

// popPositions pops the batch due at q.min with rotation r and returns
// its positions in issue order.
func popPositions(q *calendar, active []*TU, r int) []int {
	var got []int
	for _, tu := range q.pop(q.min, active, r, nil) {
		got = append(got, tu.pos)
	}
	return got
}

// legacyOrder is the legacy engine's visiting order of the due positions
// for rotation r over n positions: (pos − r) mod n ascending.
func legacyOrder(due []int, r, n int) []int {
	out := append([]int(nil), due...)
	sort.Slice(out, func(i, j int) bool { return (out[i]-r+n)%n < (out[j]-r+n)%n })
	return out
}

func TestCalendarPopAtLastSlotWraps(t *testing.T) {
	active := calUnits(8)
	q := newCalendar(8)
	now := uint64(3*calSlots - 4)
	last := now + 3 // slot calSlots-1
	pushAt(&q, active, now, last, 0, 5, 3)
	pushAt(&q, active, now, last+1, 2) // slot 0, one lap on
	pushAt(&q, active, now, last+7, 7)
	if q.min != last {
		t.Fatalf("min = %d, want %d", q.min, last)
	}
	if got := popPositions(&q, active, 4); !reflect.DeepEqual(got, []int{5, 0, 3}) {
		t.Fatalf("last-slot batch = %v, want [5 0 3]", got)
	}
	if q.min != last+1 {
		t.Fatalf("min after the last slot = %d, want %d (wrapped to slot 0)", q.min, last+1)
	}
	if got := popPositions(&q, active, 0); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("slot-0 batch = %v, want [2]", got)
	}
	if got := popPositions(&q, active, 0); !reflect.DeepEqual(got, []int{7}) || q.min != ^uint64(0) {
		t.Fatalf("final batch = %v with min %d, want [7] and an empty queue", got, q.min)
	}
}

func TestCalendarOverflowTiesRingUnit(t *testing.T) {
	active := calUnits(4)
	q := newCalendar(4)
	due := uint64(calSlots + 44)
	pushAt(&q, active, 0, due, 1) // beyond the horizon: overflow
	if len(q.over) != 1 {
		t.Fatalf("overflow holds %d units, want 1", len(q.over))
	}
	pushAt(&q, active, 100, 150, 0)
	pushAt(&q, active, 100, due, 3) // same cycle, now inside the horizon
	if got := popPositions(&q, active, 0); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("first batch = %v, want [0]", got)
	}
	if q.min != due {
		t.Fatalf("min = %d, want %d", q.min, due)
	}
	if got := popPositions(&q, active, 2); !reflect.DeepEqual(got, []int{3, 1}) {
		t.Fatalf("tied batch = %v, want ring unit 3 then migrated unit 1", got)
	}
	if len(q.over) != 0 || q.min != ^uint64(0) {
		t.Fatalf("queue not empty: %d overflow, min %d", len(q.over), q.min)
	}
}

func TestCalendarHighPositions(t *testing.T) {
	const n = 128
	active := calUnits(n)
	due := []int{3, 63, 64, 70, 127}
	for _, r := range []int{0, 3, 63, 64, 65, 127} {
		q := newCalendar(n)
		if q.words != 2 {
			t.Fatalf("%d threads: %d bitmap words, want 2", n, q.words)
		}
		pushAt(&q, active, 0, 5, due...)
		if got, want := popPositions(&q, active, r), legacyOrder(due, r, n); !reflect.DeepEqual(got, want) {
			t.Errorf("r=%d: batch %v, want %v", r, got, want)
		}
	}
	if w := newCalendar(192).words; w != 3 {
		t.Errorf("192 threads: %d bitmap words, want 3", w)
	}
}

// TestCalendarHaltCompactionOrder replays Run's batch step by hand: a
// unit halts mid-batch, compaction renumbers the survivors, and the
// next batch must follow the new positions.
func TestCalendarHaltCompactionOrder(t *testing.T) {
	m := New(core.MustNew(arch.Default()), nil)
	for i := 0; i < 5; i++ {
		tu := m.TUs[10*i]
		tu.State, tu.nextAt, tu.pos = Running, 7, i
		m.active = append(m.active, tu)
		m.cal.push(tu, 0)
	}
	m.cycle, m.rr = 7, 2
	batch := m.cal.pop(m.cycle, m.active, m.rr, nil)
	var ids []int
	for _, tu := range batch {
		ids = append(ids, tu.ID)
		if tu.ID == 30 {
			m.halt(tu)
			continue
		}
		tu.nextAt = 9
		m.cal.push(tu, m.cycle)
	}
	if want := []int{20, 30, 40, 0, 10}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("batch = %v, want %v", ids, want)
	}
	m.compact()
	m.cal.rebuild(m.active, m.cycle)
	if m.TUs[40].pos != 3 {
		t.Fatalf("unit 40 at position %d after compaction, want 3", m.TUs[40].pos)
	}
	m.cycle, m.rr = 9, 3
	ids = ids[:0]
	for _, tu := range m.cal.pop(m.cycle, m.active, m.rr, nil) {
		ids = append(ids, tu.ID)
	}
	if want := []int{40, 0, 10, 20}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("batch after compaction = %v, want %v", ids, want)
	}
}

// trapSys traps the run on the first syscall.
type trapSys struct{}

func (trapSys) Syscall(m *Machine, tu *TU) SysResult {
	m.Trap("trap from unit %d", tu.ID)
	return SysResult{Cost: 1}
}

// TestCalendarTrapRequeuesUnreached starts eight units that share an
// I-cache, so seven of them reach the trapping syscall in one batch:
// the first traps and the six the batch never reached stay queued at
// the trap cycle.
func TestCalendarTrapRequeuesUnreached(t *testing.T) {
	p, err := asm.Assemble("_start:\tsyscall\n\thalt\n")
	if err != nil {
		t.Fatal(err)
	}
	chip := core.MustNew(arch.Default())
	m := New(chip, trapSys{})
	m.SetEngine(EngineBlock)
	if err := chip.LoadImage(p.Origin, p.Bytes); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 8; id++ {
		if err := m.Start(id, p.Entry); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Run(); err == nil {
		t.Fatal("run did not trap")
	}
	var unreached []int
	for _, tu := range m.active {
		if tu.State == Running && tu.nextAt == m.cycle {
			unreached = append(unreached, tu.ID)
		}
	}
	if len(unreached) != 6 {
		t.Fatalf("%d units due at the trap cycle, want 6", len(unreached))
	}
	if m.cal.min != m.cycle {
		t.Fatalf("queue minimum %d, want the trap cycle %d", m.cal.min, m.cycle)
	}
	var queued []int
	for _, tu := range m.cal.pop(m.cycle, m.active, 0, nil) {
		queued = append(queued, tu.ID)
	}
	if !reflect.DeepEqual(queued, unreached) {
		t.Fatalf("requeued %v, want the unreached units %v", queued, unreached)
	}
}

// TestCalendarMatchesReference drives the calendar and a plain list
// through the same random pushes and pops — near and far wakeups, ties,
// same-cycle pushes — and requires the same minimum and batch order.
func TestCalendarMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(128)
		active := calUnits(n)
		q := newCalendar(128)
		queued := make([]bool, n)
		now := uint64(rng.Intn(5000))
		for step := 0; step < 400; step++ {
			for p := range active {
				if queued[p] || rng.Intn(3) == 0 {
					continue
				}
				d := uint64(rng.Intn(24))
				if rng.Intn(10) == 0 {
					d = uint64(calSlots - 8 + rng.Intn(400))
				}
				pushAt(&q, active, now, now+d, p)
				queued[p] = true
			}
			want := ^uint64(0)
			for p, ok := range queued {
				if ok && active[p].nextAt < want {
					want = active[p].nextAt
				}
			}
			if q.min != want {
				t.Fatalf("trial %d step %d: min %d, want %d", trial, step, q.min, want)
			}
			if want == ^uint64(0) {
				continue
			}
			now = want
			var due []int
			for p, ok := range queued {
				if ok && active[p].nextAt == now {
					due = append(due, p)
					queued[p] = false
				}
			}
			r := rng.Intn(n)
			if got := popPositions(&q, active, r); !reflect.DeepEqual(got, legacyOrder(due, r, n)) {
				t.Fatalf("trial %d step %d: batch %v, want %v", trial, step, got, legacyOrder(due, r, n))
			}
		}
	}
}
