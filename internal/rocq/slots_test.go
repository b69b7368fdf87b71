package rocq

import (
	"testing"
	"unsafe"

	"repro/internal/arena"
	"repro/internal/id"
)

// TestSlotColumnAllocations pins what a store's subject slots cost.
// Filling a fresh store with 64 subjects allocates the store and the
// doublings of its two columns, the index and the slot records (8, 16,
// 32, 64 each), and nothing else. Forgetting k of them and adding them
// back then allocates nothing, the first time too: the freed slots are
// reused through a chain that needs no memory of its own, and the index
// keeps its capacity.
func TestSlotColumnAllocations(t *testing.T) {
	table := arena.NewOrdinals()
	hs := make([]arena.Ordinal, 64)
	for i := range hs {
		hs[i] = table.Intern(pid(uint64(i)))
	}
	var s *Store
	fill := func() {
		s = NewStoreOn(DefaultParams(), table)
		for _, h := range hs {
			s.RefHandle(h).Init(0.5)
		}
	}
	filled := testing.AllocsPerRun(20, fill)
	if want := 1.0 + 2*4; filled != want {
		t.Errorf("filling a store with 64 subjects allocates %v objects, want %v", filled, want)
	}
	if cap(s.index) != 64 || cap(s.slots) != 64 {
		t.Errorf("after 64 subjects the index holds %d and the slot column %d, want 64 each", cap(s.index), cap(s.slots))
	}
	for _, k := range []int{1, 16, 64} {
		cycled := testing.AllocsPerRun(20, func() {
			fill()
			for i := 0; i < k; i++ {
				s.ForgetHandle(hs[i*len(hs)/k])
			}
			for i := 0; i < k; i++ {
				s.RefHandle(hs[i*len(hs)/k]).Init(0.25)
			}
		})
		if cycled != filled {
			t.Errorf("forgetting and adding back %d subjects of a full store allocates %v objects, want 0", k, cycled-filled)
		}
	}
}

// TestFreedSlotsReusedLastFreedFirst frees slots in a chosen order, by
// Forget and by DropPlaceholder, and adds as many new subjects: each
// takes the slot freed last among those still free, the slot column
// does not grow, and every reference taken to a subject that stayed
// still reads that subject.
func TestFreedSlotsReusedLastFreedFirst(t *testing.T) {
	const n = 8
	s := NewStore(DefaultParams())
	held := make([]id.ID, n) // held[i] is the subject in slot i
	refs := make([]Ref, n)   // refs[i] was taken when held[i] was added
	next := uint64(1)
	add := func() int32 {
		sub := pid(next)
		next++
		r := s.Ref(sub)
		r.Init(float64(next) / 64) // a value of its own, so a reference read through the wrong slot shows
		held[r.idx], refs[r.idx] = sub, r
		return r.idx
	}
	for i := 0; i < n; i++ {
		if got := add(); got != int32(i) {
			t.Fatalf("subject %d took slot %d in a fresh store", i, got)
		}
	}
	for cycle, freed := range [][]int32{{2, 5, 3}, {0, 7, 1, 6}, {4}, {3, 2, 5}} {
		for i, slot := range freed {
			if i%2 == 1 {
				// An odd turn frees a placeholder: forget the subject, take
				// a Ref that re-creates its slot empty, then drop it.
				s.Forget(held[slot])
				if r := s.Ref(held[slot]); r.idx != slot {
					t.Fatalf("cycle %d: a placeholder took slot %d, want the slot just freed (%d)", cycle, r.idx, slot)
				}
				s.DropPlaceholder(held[slot])
				continue
			}
			s.Forget(held[slot])
		}
		for i := len(freed) - 1; i >= 0; i-- {
			if got := add(); got != freed[i] {
				t.Fatalf("cycle %d: a new subject took slot %d, want %d (freed %v, the last freed first)", cycle, got, freed[i], freed)
			}
		}
		if live, capacity := s.ArenaSlots(); live != n || capacity != n {
			t.Fatalf("cycle %d: ArenaSlots() = (%d, %d), want (%d, %d)", cycle, live, capacity, n, n)
		}
		for slot, sub := range held {
			want, ok := s.Query(sub)
			if !ok {
				t.Fatalf("cycle %d: subject in slot %d is unknown", cycle, slot)
			}
			if got, ok := refs[slot].Query(); !ok || got != want {
				t.Fatalf("cycle %d: the reference to slot %d reads %v (%v), want its subject's %v", cycle, slot, got, ok, want)
			}
			if h, _ := s.handles.Get(sub); s.slots[slot].subject != h {
				t.Fatalf("cycle %d: slot %d names handle %d, want %d", cycle, slot, s.slots[slot].subject, h)
			}
		}
	}
	if got := s.Subjects(); got != n {
		t.Fatalf("Subjects() = %d, want %d", got, n)
	}
}

// TestSlotRecordSize pins what the layout spends: a slot record is 32 B
// (two float64s, then a report count, a handle and a flag padded to
// 16 B), and a store on a 64-bit platform is 144 B, with one slice
// header for its slots and an int32 heading the free chain.
func TestSlotRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(subjectSlot{}); got != 32 {
		t.Errorf("subjectSlot is %d B, want 32", got)
	}
	if unsafe.Sizeof(uintptr(0)) == 8 {
		if got := unsafe.Sizeof(Store{}); got != 144 {
			t.Errorf("Store is %d B, want 144", got)
		}
	}
}
