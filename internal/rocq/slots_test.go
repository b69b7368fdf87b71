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

// TestRecordColumnAllocations pins what a store's credibilities and a
// book's partners cost: each is one column of records grown by
// arena.InsertAt, so 64 new reporters to one store make the column four
// times (8, 16, 32 and 64 records), and so do 64 new partners in one
// book. Two parallel columns would make eight objects each.
func TestRecordColumnAllocations(t *testing.T) {
	table := arena.NewOrdinals()
	hs := make([]arena.Ordinal, 65)
	for i := range hs {
		hs[i] = table.Intern(pid(uint64(i)))
	}
	s := NewStoreOn(DefaultParams(), table)
	ref := s.RefHandle(hs[64])
	reports := testing.AllocsPerRun(20, func() {
		s.creds = nil
		for _, h := range hs[:64] {
			ref.ReportHandle(h, Opinion{Value: 1, Quality: 0.5})
		}
	})
	if reports != 4 {
		t.Errorf("64 new reporters to one store allocate %v objects, want 4", reports)
	}
	if len(s.creds) != 64 || cap(s.creds) != 64 {
		t.Errorf("after 64 reporters the credibility column holds %d of %d, want 64 of 64", len(s.creds), cap(s.creds))
	}
	b := NewOpinionBookOn(DefaultParams(), table)
	records := testing.AllocsPerRun(20, func() {
		b.partners = nil
		for _, h := range hs[:64] {
			b.RecordHandle(h, 1)
		}
	})
	if records != 4 {
		t.Errorf("64 new partners in one book allocate %v objects, want 4", records)
	}
	if len(b.partners) != 64 || cap(b.partners) != 64 {
		t.Errorf("after 64 partners the partner column holds %d of %d, want 64 of 64", len(b.partners), cap(b.partners))
	}
}

// TestSlotRecordSize pins what the layout spends: a slot record is 32 B
// (two float64s, then a report count, a handle and a flag padded to
// 16 B); a credibility record is 12 B and a partner record 20 B, a
// handle and packed words that add no padding; and on a 64-bit platform
// a store is 120 B, with one slice header for its slots, one for its
// credibilities and an int32 heading the free chain, and a book 40 B.
func TestSlotRecordSize(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"subjectSlot", unsafe.Sizeof(subjectSlot{}), 32},
		{"credEntry", unsafe.Sizeof(credEntry{}), 12},
		{"partnerEntry", unsafe.Sizeof(partnerEntry{}), 20},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d B, want %d", c.name, c.got, c.want)
		}
	}
	if unsafe.Sizeof(uintptr(0)) == 8 {
		if got := unsafe.Sizeof(Store{}); got != 120 {
			t.Errorf("Store is %d B, want 120", got)
		}
		if got := unsafe.Sizeof(OpinionBook{}); got != 40 {
			t.Errorf("OpinionBook is %d B, want 40", got)
		}
	}
}
