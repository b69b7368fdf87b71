package topology

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/id"
	"repro/internal/rng"
)

func peerN(i int) id.ID { return id.HashString(fmt.Sprintf("peer-%d", i)) }

func TestParseKind(t *testing.T) {
	for _, s := range []string{"random", "powerlaw"} {
		k, err := ParseKind(s)
		if err != nil || string(k) != s {
			t.Fatalf("ParseKind(%q) = %v, %v", s, k, err)
		}
	}
	if _, err := ParseKind("mesh"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestNewByKind(t *testing.T) {
	for _, k := range []Kind{Random, PowerLaw} {
		sel, err := New(k, rng.New(1))
		if err != nil || sel == nil {
			t.Fatalf("New(%v): %v", k, err)
		}
	}
	if _, err := New(Kind("bogus"), rng.New(1)); err == nil {
		t.Fatal("bogus kind accepted")
	}
}

func TestUniformEmptyPick(t *testing.T) {
	u := NewUniform(rng.New(1))
	if _, ok := u.Pick(id.ID{}); ok {
		t.Fatal("pick from empty selector succeeded")
	}
}

func TestUniformSinglePeerExcluded(t *testing.T) {
	u := NewUniform(rng.New(1))
	p := peerN(0)
	u.Add(p)
	if _, ok := u.Pick(p); ok {
		t.Fatal("pick with the only peer excluded succeeded")
	}
	got, ok := u.Pick(peerN(99))
	if !ok || got != p {
		t.Fatalf("pick = %v, %v", got.Short(), ok)
	}
}

func TestUniformNeverPicksExcluded(t *testing.T) {
	u := NewUniform(rng.New(2))
	for i := 0; i < 5; i++ {
		u.Add(peerN(i))
	}
	ex := peerN(3)
	for i := 0; i < 2000; i++ {
		got, ok := u.Pick(ex)
		if !ok || got == ex {
			t.Fatalf("picked excluded peer")
		}
	}
}

func TestUniformApproximatelyUniform(t *testing.T) {
	u := NewUniform(rng.New(3))
	const n = 10
	for i := 0; i < n; i++ {
		u.Add(peerN(i))
	}
	counts := map[id.ID]int{}
	const draws = 100000
	for i := 0; i < draws; i++ {
		p, _ := u.Pick(id.ID{})
		counts[p]++
	}
	for i := 0; i < n; i++ {
		frac := float64(counts[peerN(i)]) / draws
		if math.Abs(frac-0.1) > 0.01 {
			t.Fatalf("peer %d frequency %v, want ~0.1", i, frac)
		}
	}
}

func TestUniformDuplicatePanics(t *testing.T) {
	u := NewUniform(rng.New(1))
	u.Add(peerN(0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	u.Add(peerN(0))
}

func TestUniformContainsLen(t *testing.T) {
	u := NewUniform(rng.New(1))
	u.Add(peerN(0))
	if !u.Contains(peerN(0)) || u.Contains(peerN(1)) || u.Len() != 1 {
		t.Fatal("Contains/Len wrong")
	}
}

func TestScaleFreeEmptyAndSingle(t *testing.T) {
	s := NewScaleFree(rng.New(1))
	if _, ok := s.Pick(id.ID{}); ok {
		t.Fatal("pick from empty scale-free succeeded")
	}
	p := peerN(0)
	s.Add(p)
	if _, ok := s.Pick(p); ok {
		t.Fatal("pick with only peer excluded succeeded")
	}
	got, ok := s.Pick(peerN(99))
	if !ok || got != p {
		t.Fatal("single-peer pick failed")
	}
}

func TestScaleFreeDegreesGrow(t *testing.T) {
	s := NewScaleFree(rng.New(2))
	const n = 500
	for i := 0; i < n; i++ {
		s.Add(peerN(i))
	}
	if s.Len() != n {
		t.Fatalf("Len = %d", s.Len())
	}
	var total int64
	maxDeg := int64(0)
	for i := 0; i < n; i++ {
		d := s.Degree(peerN(i))
		if d < 1 {
			t.Fatalf("peer %d has degree %d", i, d)
		}
		total += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	// Every arrival past the first adds 2 edges -> 2 degree units each.
	if total < int64(2*(n-1)) {
		t.Fatalf("total degree %d too small", total)
	}
	// A scale-free network must grow hubs: the max degree should be far
	// above the mean (~4).
	if maxDeg < 20 {
		t.Fatalf("max degree %d — no hubs formed", maxDeg)
	}
}

func TestScaleFreePickMatchesDegreeBias(t *testing.T) {
	s := NewScaleFree(rng.New(4))
	const n = 300
	for i := 0; i < n; i++ {
		s.Add(peerN(i))
	}
	counts := map[id.ID]int{}
	const draws = 200000
	for i := 0; i < draws; i++ {
		p, _ := s.Pick(id.ID{})
		counts[p]++
	}
	// The most-selected peer should be selected roughly in proportion to
	// its degree share and far above the minimum-degree peers.
	var best id.ID
	for i := 0; i < n; i++ {
		if counts[peerN(i)] > counts[best] {
			best = peerN(i)
		}
	}
	var minDegPeer id.ID
	minDeg := int64(math.MaxInt64)
	for i := 0; i < n; i++ {
		if d := s.Degree(peerN(i)); d < minDeg {
			minDeg, minDegPeer = d, peerN(i)
		}
	}
	if counts[best] < 5*counts[minDegPeer] {
		t.Fatalf("hub picked %d times vs leaf %d — selection not degree-biased",
			counts[best], counts[minDegPeer])
	}
}

func TestScaleFreeNeverPicksExcluded(t *testing.T) {
	s := NewScaleFree(rng.New(5))
	for i := 0; i < 20; i++ {
		s.Add(peerN(i))
	}
	// Exclude the highest-degree peer to stress the rejection path.
	var hub id.ID
	var hubDeg int64
	for i := 0; i < 20; i++ {
		if d := s.Degree(peerN(i)); d > hubDeg {
			hubDeg, hub = d, peerN(i)
		}
	}
	for i := 0; i < 5000; i++ {
		p, ok := s.Pick(hub)
		if !ok || p == hub {
			t.Fatal("picked excluded hub")
		}
	}
}

func TestScaleFreeDuplicatePanics(t *testing.T) {
	s := NewScaleFree(rng.New(1))
	s.Add(peerN(0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Add(peerN(0))
}

func TestScaleFreeDegreeUnknownPeer(t *testing.T) {
	s := NewScaleFree(rng.New(1))
	if s.Degree(peerN(9)) != 0 {
		t.Fatal("unknown peer should have degree 0")
	}
}

func TestScaleFreeDeterministic(t *testing.T) {
	run := func() []int64 {
		s := NewScaleFree(rng.New(42))
		for i := 0; i < 100; i++ {
			s.Add(peerN(i))
		}
		out := make([]int64, 100)
		for i := range out {
			out[i] = s.Degree(peerN(i))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("degree sequence not deterministic at %d", i)
		}
	}
}
