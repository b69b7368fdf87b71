package overlay

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/id"
)

// buildRing joins n pseudo-random nodes and returns the ring plus their ids.
func buildRing(t testing.TB, n int) (*Ring, []id.ID) {
	t.Helper()
	r := NewRing()
	ids := make([]id.ID, 0, n)
	for i := 0; i < n; i++ {
		nid := id.HashString(fmt.Sprintf("node-%d", i))
		if err := r.Join(nid); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		ids = append(ids, nid)
	}
	return r, ids
}

func TestJoinDuplicateRejected(t *testing.T) {
	r := NewRing()
	n := id.FromUint64(1)
	if err := r.Join(n); err != nil {
		t.Fatal(err)
	}
	if err := r.Join(n); err == nil {
		t.Fatal("duplicate join accepted")
	}
}

func TestLeaveNonMemberRejected(t *testing.T) {
	r := NewRing()
	if err := r.Leave(id.FromUint64(1)); err == nil {
		t.Fatal("leave of non-member accepted")
	}
}

func TestMembersSortedAndSized(t *testing.T) {
	r, _ := buildRing(t, 50)
	ms := r.Members()
	if len(ms) != 50 || r.Size() != 50 {
		t.Fatalf("size = %d / %d", len(ms), r.Size())
	}
	for i := 1; i < len(ms); i++ {
		if !ms[i-1].Less(ms[i]) {
			t.Fatal("members not strictly ascending")
		}
	}
}

func TestSuccessorOracle(t *testing.T) {
	r, _ := buildRing(t, 20)
	ms := r.Members()
	// A key just below member i is owned by member i.
	for _, m := range ms {
		owner, err := r.Successor(m)
		if err != nil || owner != m {
			t.Fatalf("Successor(member) = %v, %v; want the member itself", owner, err)
		}
	}
	// A key above the top member wraps to the first member.
	var top id.ID
	for i := range top {
		top[i] = 0xff
	}
	if ms[len(ms)-1] != top {
		owner, _ := r.Successor(top)
		if owner != ms[0] {
			t.Fatalf("wrap-around owner = %v, want %v", owner.Short(), ms[0].Short())
		}
	}
}

func TestSuccessorEmptyRing(t *testing.T) {
	if _, err := NewRing().Successor(id.FromUint64(1)); err == nil {
		t.Fatal("expected ErrEmpty")
	}
}

// TestNeighbourPointers pins NextMember, the world's view of the live
// neighbour list, against the sorted membership: on a 30-node ring, after
// every third member leaves and after fresh joins, each member's next
// member is the one clockwise from it, and a non-member has none.
func TestNeighbourPointers(t *testing.T) {
	r, ids := buildRing(t, 30)
	check := func(when string) {
		t.Helper()
		ms := r.Members()
		for i, m := range ms {
			want := ms[(i+1)%len(ms)]
			if got, ok := r.NextMember(m); !ok || got != want {
				t.Fatalf("%s: NextMember(%s) = %s, %v; want %s", when, m.Short(), got.Short(), ok, want.Short())
			}
			if !r.Contains(m) {
				t.Fatalf("%s: Contains(%s) = false for a member", when, m.Short())
			}
		}
	}
	check("built")
	for i := 0; i < len(ids); i += 3 {
		if err := r.Leave(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	check("after leaves")
	for i := 0; i < 10; i++ {
		if err := r.Join(id.HashString(fmt.Sprintf("fresh-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	check("after joins")
	for _, n := range []id.ID{ids[0], id.HashString("never-joined")} {
		if _, ok := r.NextMember(n); ok {
			t.Fatalf("NextMember(%s) answered for a non-member", n.Short())
		}
		if r.Contains(n) {
			t.Fatalf("Contains(%s) = true for a non-member", n.Short())
		}
		if err := r.Leave(n); !errors.Is(err, ErrNotMember) {
			t.Fatalf("Leave(%s) of a non-member: %v", n.Short(), err)
		}
	}
	// A second join of any member, the lowest and highest included, is
	// refused and changes nothing.
	size, epoch := r.Size(), r.Epoch()
	for _, m := range r.Members() {
		if err := r.Join(m); !errors.Is(err, ErrDuplicate) {
			t.Fatalf("second Join(%s): %v", m.Short(), err)
		}
	}
	if r.Size() != size || r.Epoch() != epoch {
		t.Fatalf("refused joins moved size %d -> %d, epoch %d -> %d", size, r.Size(), epoch, r.Epoch())
	}
	check("after refused joins")
}

func TestSingleNodeRing(t *testing.T) {
	r := NewRing()
	n := id.FromUint64(42)
	if err := r.Join(n); err != nil {
		t.Fatal(err)
	}
	if next, ok := r.NextMember(n); !ok || next != n {
		t.Fatal("single node must be its own neighbour")
	}
	owner, err := r.Successor(id.FromUint64(7))
	if err != nil || owner != n {
		t.Fatalf("singleton owns every key: Successor = %v, %v", owner.Short(), err)
	}
}

func TestScoreManagersDistinctAndStable(t *testing.T) {
	r, ids := buildRing(t, 200)
	peer := ids[17]
	sms, err := r.ScoreManagers(peer, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(sms) != 6 {
		t.Fatalf("got %d managers", len(sms))
	}
	seen := map[id.ID]bool{}
	for _, m := range sms {
		if m == peer {
			t.Fatal("peer assigned as its own score manager")
		}
		if seen[m] {
			t.Fatal("duplicate score manager on a large ring")
		}
		seen[m] = true
		if !r.Contains(m) {
			t.Fatal("score manager not a member")
		}
	}
	again, _ := r.ScoreManagers(peer, 6)
	for i := range sms {
		if sms[i] != again[i] {
			t.Fatal("score manager assignment not deterministic")
		}
	}
}

func TestScoreManagersChangeUnderChurn(t *testing.T) {
	r, ids := buildRing(t, 100)
	peer := ids[0]
	before, _ := r.ScoreManagers(peer, 6)
	for i := 0; i < 200; i++ {
		if err := r.Join(id.HashString(fmt.Sprintf("churner-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := r.ScoreManagers(peer, 6)
	changed := 0
	for i := range before {
		if before[i] != after[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("tripling membership changed no score manager assignment — placement looks static")
	}
}

func TestScoreManagersTinyRing(t *testing.T) {
	r := NewRing()
	a, b := id.FromUint64(1), id.FromUint64(2)
	if err := r.Join(a); err != nil {
		t.Fatal(err)
	}
	if err := r.Join(b); err != nil {
		t.Fatal(err)
	}
	sms, err := r.ScoreManagers(a, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(sms) != 6 {
		t.Fatalf("got %d managers", len(sms))
	}
	for _, m := range sms {
		if m != b {
			t.Fatalf("two-node ring: every manager slot should be the other node, got %v", m.Short())
		}
	}
}

func TestScoreManagersSelfOnlyRing(t *testing.T) {
	r := NewRing()
	a := id.FromUint64(1)
	if err := r.Join(a); err != nil {
		t.Fatal(err)
	}
	sms, err := r.ScoreManagers(a, 3)
	if err != nil || len(sms) != 3 {
		t.Fatalf("sms=%v err=%v", sms, err)
	}
	for _, m := range sms {
		if m != a {
			t.Fatal("singleton ring must self-manage")
		}
	}
}

func TestScoreManagersValidation(t *testing.T) {
	r, _ := buildRing(t, 3)
	if _, err := r.ScoreManagers(id.FromUint64(1), 0); err == nil {
		t.Fatal("numSM=0 accepted")
	}
	if _, err := NewRing().ScoreManagers(id.FromUint64(1), 3); err == nil {
		t.Fatal("empty ring accepted")
	}
}

// Property: join then leave restores the exact membership and owner map.
func TestJoinLeaveRestoresOwnership(t *testing.T) {
	r, _ := buildRing(t, 50)
	keys := make([]id.ID, 40)
	for i := range keys {
		keys[i] = id.HashString(fmt.Sprintf("jl-key-%d", i))
	}
	before := make([]id.ID, len(keys))
	for i, k := range keys {
		before[i], _ = r.Successor(k)
	}
	extra := id.HashString("transient")
	if err := r.Join(extra); err != nil {
		t.Fatal(err)
	}
	if err := r.Leave(extra); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		after, _ := r.Successor(k)
		if after != before[i] {
			t.Fatalf("ownership of key %d changed after join+leave", i)
		}
	}
}
