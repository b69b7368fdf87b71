package arena

import (
	"testing"

	"repro/internal/id"
)

func pid(n uint64) id.ID { return id.FromUint64(n) }

func TestOrdinalsAssignDenseAndRecycleLIFO(t *testing.T) {
	o := NewOrdinals()
	a, b, c := pid(1), pid(2), pid(3)
	if got := o.Assign(a); got != 0 {
		t.Fatalf("first ordinal = %d, want 0", got)
	}
	if got := o.Assign(b); got != 1 {
		t.Fatalf("second ordinal = %d, want 1", got)
	}
	if got := o.Assign(c); got != 2 {
		t.Fatalf("third ordinal = %d, want 2", got)
	}
	o.Release(a)
	o.Release(c)
	// LIFO: the most recently released slot (c's, ordinal 2) is reused
	// first.
	if got := o.Assign(pid(4)); got != 2 {
		t.Fatalf("recycled ordinal = %d, want 2 (LIFO)", got)
	}
	if got := o.Assign(pid(5)); got != 0 {
		t.Fatalf("second recycled ordinal = %d, want 0", got)
	}
	if o.Len() != 3 || o.Cap() != 3 {
		t.Fatalf("Len=%d Cap=%d, want 3/3", o.Len(), o.Cap())
	}
}

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
	if o.Len() != 2 || o.Cap() != 2 {
		t.Fatalf("Len=%d Cap=%d, want 2/2", o.Len(), o.Cap())
	}
}

func TestOrdinalsLookupAndID(t *testing.T) {
	o := NewOrdinals()
	a := pid(7)
	ord := o.Assign(a)
	if got, ok := o.Get(a); !ok || got != ord {
		t.Fatalf("Get = (%d,%v), want (%d,true)", got, ok, ord)
	}
	if back, ok := o.ID(ord); !ok || back != a {
		t.Fatalf("ID(%d) = (%v,%v), want (%v,true)", ord, back, ok, a)
	}
	o.Release(a)
	if _, ok := o.Get(a); ok {
		t.Fatal("Get after Release reported assigned")
	}
	if _, ok := o.ID(ord); ok {
		t.Fatal("ID of freed slot reported live")
	}
	if _, ok := o.ID(None); ok {
		t.Fatal("ID(None) reported live")
	}
}

func TestOrdinalsDeterministicReplay(t *testing.T) {
	// The same assign/release script must yield the same table — the
	// property the snapshot round-trip leans on.
	script := func() *Ordinals {
		o := NewOrdinals()
		for i := uint64(1); i <= 20; i++ {
			o.Assign(pid(i))
		}
		for i := uint64(2); i <= 20; i += 3 {
			o.Release(pid(i))
		}
		for i := uint64(100); i < 110; i++ {
			o.Assign(pid(i))
		}
		return o
	}
	a, b := script(), script()
	if a.Cap() != b.Cap() || a.Len() != b.Len() {
		t.Fatalf("replay diverged: cap %d/%d len %d/%d", a.Cap(), b.Cap(), a.Len(), b.Len())
	}
	for ord := Ordinal(0); int(ord) < a.Cap(); ord++ {
		ia, oka := a.ID(ord)
		ib, okb := b.ID(ord)
		if oka != okb || ia != ib {
			t.Fatalf("ordinal %d diverged: (%v,%v) vs (%v,%v)", ord, ia, oka, ib, okb)
		}
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
