package rng

import (
	"math"
	"math/bits"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between distinct seeds", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical first values")
	}
}

func TestSplitReproducible(t *testing.T) {
	mk := func() []uint64 {
		p := New(99)
		var out []uint64
		for i := 0; i < 5; i++ {
			out = append(out, p.Split().Uint64())
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("split stream not reproducible at %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	seen := make([]bool, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("value %d never drawn in 10000 samples", i)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUnbiasedSmallRange(t *testing.T) {
	r := New(6)
	counts := make([]int, 3)
	const n = 300000
	for i := 0; i < n; i++ {
		counts[r.Uint64n(3)]++
	}
	for v, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-1.0/3) > 0.01 {
			t.Fatalf("value %d frequency %v, want ~1/3", v, frac)
		}
	}
}

func TestBernoulli(t *testing.T) {
	r := New(7)
	if r.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency %v", frac)
	}
}

func TestExpMean(t *testing.T) {
	r := New(8)
	const lambda = 0.1
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Exp(lambda)
		if v < 0 {
			t.Fatalf("negative exponential sample %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1/lambda) > 0.3 {
		t.Fatalf("Exp mean %v, want ~%v", mean, 1/lambda)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Exp(0)
}

func TestPickWeighted(t *testing.T) {
	r := New(18)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Pick(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight element drawn %d times", counts[1])
	}
	frac0 := float64(counts[0]) / n
	if math.Abs(frac0-0.25) > 0.01 {
		t.Fatalf("weight-1 element frequency %v, want ~0.25", frac0)
	}
}

func TestPickPanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Pick([]float64{0, 0})
}

func TestDeriveSeedIsPureAndKeyed(t *testing.T) {
	// Pure function of the pair: repeated evaluation agrees and consumes
	// no state anywhere.
	if DeriveSeed(7, 3) != DeriveSeed(7, 3) {
		t.Fatal("DeriveSeed is not deterministic")
	}
	// For a fixed root, distinct keys must give distinct seeds (the key
	// path is bijective) — the no-collision guarantee replica and
	// sweep-point streams rely on.
	const n = 1 << 16
	seen := make(map[uint64]uint64, n)
	for k := uint64(0); k < n; k++ {
		s := DeriveSeed(42, k)
		if prev, dup := seen[s]; dup {
			t.Fatalf("keys %d and %d collide on seed %d", prev, k, s)
		}
		seen[s] = k
	}
	// Across roots the outputs should look unrelated: flipping one root
	// bit must reshuffle the child seed.
	if DeriveSeed(42, 0) == DeriveSeed(43, 0) {
		t.Fatal("adjacent roots derive the same child seed")
	}
	// The derived stream must not be the root stream.
	root, child := New(42), New(DeriveSeed(42, 0))
	same := 0
	for i := 0; i < 64; i++ {
		if root.Uint64() == child.Uint64() {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("child stream collides with root stream on %d of 64 draws", same)
	}
}

func TestDeriveStreamsAreIndependent(t *testing.T) {
	// Adjacent keys (the replica layout) must give uncorrelated streams:
	// a crude equidistribution check over the XOR of paired draws.
	a, b := New(DeriveSeed(1, 1)), New(DeriveSeed(1, 2))
	ones := 0
	const draws = 1024
	for i := 0; i < draws; i++ {
		ones += bits.OnesCount64(a.Uint64() ^ b.Uint64())
	}
	mean := float64(ones) / draws
	if mean < 30 || mean > 34 {
		t.Fatalf("mean XOR popcount %v of paired draws, want ~32", mean)
	}
}
