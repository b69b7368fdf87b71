package id

import (
	"math/big"
	"testing"
	"testing/quick"
)

// toBig converts an ID to a big.Int for cross-checking ring order
// against an independent implementation.
func toBig(d ID) *big.Int { return new(big.Int).SetBytes(d[:]) }

var ringMod = new(big.Int).Lsh(big.NewInt(1), Bits)

func TestHashDeterministic(t *testing.T) {
	a := HashString("alpha")
	b := HashString("alpha")
	c := HashString("beta")
	if a != b {
		t.Fatal("hash of identical input differs")
	}
	if a == c {
		t.Fatal("hash of distinct inputs collides (astronomically unlikely)")
	}
}

func TestReplicaDistinct(t *testing.T) {
	base := HashString("peer")
	seen := map[ID]bool{}
	for r := 0; r < 16; r++ {
		rep := base.Replica(r)
		if seen[rep] {
			t.Fatalf("replica %d collides with an earlier replica", r)
		}
		seen[rep] = true
		if rep2 := base.Replica(r); rep2 != rep {
			t.Fatalf("replica %d not deterministic", r)
		}
	}
}

func TestUint64RoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 255, 1 << 40, ^uint64(0)} {
		if got := FromUint64(v).Uint64(); got != v {
			t.Errorf("FromUint64(%d).Uint64() = %d", v, got)
		}
	}
}

func TestBetweenSimpleArc(t *testing.T) {
	a, b, c := FromUint64(10), FromUint64(20), FromUint64(30)
	if !b.Between(a, c) {
		t.Fatal("20 should be in (10,30)")
	}
	if a.Between(a, c) || c.Between(a, c) {
		t.Fatal("endpoints must be excluded")
	}
	if b.Between(c, a) {
		t.Fatal("20 must not be in the wrapping arc (30,10)")
	}
}

func TestBetweenWrappingArc(t *testing.T) {
	lo, hi := FromUint64(10), FromUint64(30)
	outside := FromUint64(20)
	var nearTop ID
	for i := range nearTop {
		nearTop[i] = 0xff
	}
	if !nearTop.Between(hi, lo) {
		t.Fatal("2^160-1 should be in the wrapping arc (30,10)")
	}
	if !FromUint64(5).Between(hi, lo) {
		t.Fatal("5 should be in the wrapping arc (30,10)")
	}
	if outside.Between(hi, lo) {
		t.Fatal("20 should not be in the wrapping arc (30,10)")
	}
}

func TestBetweenDegenerateArc(t *testing.T) {
	p := FromUint64(7)
	if p.Between(p, p) {
		t.Fatal("point must not lie in its own degenerate arc")
	}
	if !FromUint64(8).Between(p, p) {
		t.Fatal("any other point lies in the full-ring arc")
	}
}

// Between must agree with a model using big.Int arithmetic on clockwise
// distances: d in (from,to) iff dist(from,d) < dist(from,to), d != from.
func TestBetweenAgainstDistanceModel(t *testing.T) {
	// dist is the clockwise distance from a to b: (b - a) mod 2^160.
	dist := func(a, b ID) *big.Int {
		return new(big.Int).Mod(new(big.Int).Sub(toBig(b), toBig(a)), ringMod)
	}
	f := func(a, b, c [Bytes]byte) bool {
		from, to, d := ID(a), ID(b), ID(c)
		if d == from || d == to {
			return !d.Between(from, to) || from == to && d != from
		}
		if from == to {
			return d.Between(from, to)
		}
		want := dist(from, d).Cmp(dist(from, to)) < 0
		return d.Between(from, to) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCmpOrdering(t *testing.T) {
	a, b := FromUint64(1), FromUint64(2)
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Fatal("Cmp ordering broken")
	}
	if !a.Less(b) || b.Less(a) {
		t.Fatal("Less ordering broken")
	}
}

func TestStringAndShort(t *testing.T) {
	v := HashString("render")
	if len(v.String()) != 40 {
		t.Fatalf("String length = %d, want 40", len(v.String()))
	}
	if len(v.Short()) != 8 {
		t.Fatalf("Short length = %d, want 8", len(v.Short()))
	}
	if v.String()[:8] != v.Short() {
		t.Fatal("Short must be a prefix of String")
	}
}

func TestIsZero(t *testing.T) {
	var z ID
	if !z.IsZero() {
		t.Fatal("zero value must report IsZero")
	}
	if FromUint64(1).IsZero() {
		t.Fatal("nonzero value must not report IsZero")
	}
}
