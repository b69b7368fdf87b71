package arena

import (
	"testing"

	"repro/internal/id"
)

func pid(n uint64) id.ID { return id.FromUint64(n) }

func TestOrdinalsInternIsGetOrAssign(t *testing.T) {
	o := NewOrdinals()
	a, b := pid(1), pid(2)
	if got := o.Intern(a); got != 0 {
		t.Fatalf("first intern = %d, want 0", got)
	}
	if got := o.Intern(b); got != 1 {
		t.Fatalf("second intern = %d, want 1", got)
	}
	if got := o.Intern(a); got != 0 {
		t.Fatalf("re-intern = %d, want the original 0", got)
	}
	if ord, ok := o.Get(b); !ok || ord != 1 {
		t.Fatalf("Get after Intern = (%d, %v), want (1, true)", ord, ok)
	}
	if o.Len() != 2 {
		t.Fatalf("Len=%d, want 2", o.Len())
	}
}

func TestOrdinalsLookupAndID(t *testing.T) {
	o := NewOrdinals()
	a := pid(7)
	ord := o.Intern(a)
	if got, ok := o.Get(a); !ok || got != ord {
		t.Fatalf("Get = (%d,%v), want (%d,true)", got, ok, ord)
	}
	if back, ok := o.ID(ord); !ok || back != a {
		t.Fatalf("ID(%d) = (%v,%v), want (%v,true)", ord, back, ok, a)
	}
	if _, ok := o.Get(pid(8)); ok {
		t.Fatal("Get of an id never interned reported one")
	}
	if _, ok := o.ID(ord + 1); ok {
		t.Fatal("ID past the table reported an id")
	}
	if _, ok := o.ID(None); ok {
		t.Fatal("ID(None) reported an id")
	}
}

func TestSlabPointerStabilityAcrossGrowth(t *testing.T) {
	type rec struct{ v int }
	var s Slab[rec]
	var ptrs []*rec
	for i := 0; i < 4*slabChunk+17; i++ {
		p := s.Alloc()
		p.v = i
		ptrs = append(ptrs, p)
	}
	for i, p := range ptrs {
		if p.v != i {
			t.Fatalf("record %d corrupted after growth: %d", i, p.v)
		}
	}
}

func TestSlabFreeZeroesAndRecycles(t *testing.T) {
	type rec struct {
		v    int
		next *rec
	}
	var s Slab[rec]
	a := s.Alloc()
	a.v, a.next = 42, a
	s.Free(a)
	b := s.Alloc()
	if b != a {
		t.Fatal("free-list did not recycle the released record")
	}
	if b.v != 0 || b.next != nil {
		t.Fatalf("recycled record not zeroed: %+v", b)
	}
}
