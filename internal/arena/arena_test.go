package arena

import (
	"math"
	"math/rand/v2"
	"testing"
	"unsafe"

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

// TestWordRoundTripsExactBits packs the values a lossy conversion would
// change, and 10,000 random bit patterns, and reads each back bit for
// bit as a float64, an int64 and a uint64. A Word is 8 B aligned to 4,
// so it adds no padding after a 4-byte handle.
func TestWordRoundTripsExactBits(t *testing.T) {
	if size, align := unsafe.Sizeof(Word{}), unsafe.Alignof(Word{}); size != 8 || align != 4 {
		t.Fatalf("Word is %d B aligned to %d, want 8 aligned to 4", size, align)
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8_0000_dead_beef), // a quiet NaN with a payload
	} {
		if got := Float64Word(f).Float64(); math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("float %v (bits %#016x) reads back as bits %#016x", f, math.Float64bits(f), math.Float64bits(got))
		}
	}
	for _, i := range []int64{0, 1, -1, math.MinInt64, math.MaxInt64} {
		if got := Int64Word(i).Int64(); got != i {
			t.Errorf("int %d reads back as %d", i, got)
		}
	}
	src := rand.New(rand.NewPCG(1, 2))
	for n := 0; n < 10000; n++ {
		u := src.Uint64()
		if got := Uint64Word(u).Uint64(); got != u {
			t.Fatalf("uint %#016x reads back as %#016x", u, got)
		}
		if got := Int64Word(int64(u)).Int64(); got != int64(u) {
			t.Fatalf("int %d reads back as %d", int64(u), got)
		}
		if got := Float64Word(math.Float64frombits(u)).Float64(); math.Float64bits(got) != u {
			t.Fatalf("float bits %#016x read back as %#016x", u, math.Float64bits(got))
		}
	}
}
