package transport

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/id"
	"repro/internal/rng"
)

// TestSynchronousDelivery: a routed message to a live node arrives at
// once, each one counted as Sent and Delivered, with nothing queued.
func TestSynchronousDelivery(t *testing.T) {
	b := NewBus()
	dst := id.FromUint64(2)
	for i := int64(1); i <= 2; i++ {
		if !b.Deliver(dst, true) {
			t.Fatalf("message %d to a live routed node did not arrive", i)
		}
		if st := b.Stats(); st != (Stats{Sent: i, Delivered: i}) {
			t.Fatalf("after message %d: stats = %+v", i, st)
		}
	}
}

func TestNoRouteCounted(t *testing.T) {
	b := NewBus()
	if b.Deliver(id.FromUint64(99), false) {
		t.Fatal("an unrouted message arrived")
	}
	if st := b.Stats(); st != (Stats{Sent: 1, NoRoute: 1}) {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCrashSwallowsAndRecoverRestores pins Deliver's counters around a
// crash: every call counts as Sent and as exactly one of Delivered,
// Crashed and NoRoute, and a crashed node swallows a message whether or
// not it is routed, so the crash flag is checked before the route.
func TestCrashSwallowsAndRecoverRestores(t *testing.T) {
	b := NewBus()
	dst := id.FromUint64(5)
	b.Crash(dst)
	if !b.IsCrashed(dst) {
		t.Fatal("IsCrashed should be true")
	}
	if b.Deliver(dst, true) || b.Deliver(dst, false) {
		t.Fatal("crashed node received a message")
	}
	b.Recover(dst)
	if b.IsCrashed(dst) || !b.Deliver(dst, true) {
		t.Fatal("recovered node did not receive")
	}
	if st := b.Stats(); st != (Stats{Sent: 3, Delivered: 1, Crashed: 2}) {
		t.Fatalf("stats = %+v", st)
	}
}

// decodeLendOrder parses LendOrder.Encode's canonical byte form. It is
// the round-trip oracle: the signed bytes must carry every field.
func decodeLendOrder(b []byte) LendOrder {
	var o LendOrder
	copy(o.Introducer[:], b[:id.Bytes])
	copy(o.NewPeer[:], b[id.Bytes:2*id.Bytes])
	o.Amount = math.Float64frombits(binary.BigEndian.Uint64(b[2*id.Bytes : 2*id.Bytes+8]))
	o.Nonce = binary.BigEndian.Uint64(b[2*id.Bytes+8:])
	return o
}

func TestLendOrderEncodeDecodeRoundTrip(t *testing.T) {
	f := func(intro, np [id.Bytes]byte, amount float64, nonce uint64) bool {
		o := LendOrder{Introducer: id.ID(intro), NewPeer: id.ID(np), Amount: amount, Nonce: nonce}
		enc := o.Encode()
		if len(enc) != 2*id.Bytes+16 {
			return false
		}
		// NaN never round-trips by ==; compare bit patterns via re-encode.
		return string(decodeLendOrder(enc).Encode()) == string(enc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	s1, _ := NewSigner(rng.New(1))
	s2, _ := NewSigner(rng.New(2))
	env := s1.Sign(LendOrder{Nonce: 1})
	if s2.PublicEquals(env.Pub) {
		t.Fatal("another signer's key accepted")
	}
}

func TestVerifyRejectsImpersonation(t *testing.T) {
	// Attacker signs with its own key but claims to be the introducer:
	// the signature is valid, so only the key binding can refuse it.
	attacker, _ := NewSigner(rng.New(3))
	victim, _ := NewSigner(rng.New(4))
	env := attacker.Sign(LendOrder{Introducer: id.FromUint64(7), Nonce: 1})
	if !attacker.VerifyEnvelope(env) {
		t.Fatal("attacker's own signature should verify")
	}
	if victim.PublicEquals(env.Pub) {
		t.Fatal("impersonation accepted")
	}
}

// TestVerifyRejectsTruncatedKey: ed25519.Verify panics on a key of the
// wrong size, so every identity must refuse one at PublicEquals, before
// VerifyEnvelope sees it.
func TestVerifyRejectsTruncatedKey(t *testing.T) {
	s, _ := NewSigner(rng.New(5))
	owner := id.FromUint64(5)
	env := s.Sign(LendOrder{Introducer: owner, Nonce: 1})
	var keys NullKeys
	null := keys.Identity(owner)
	for _, c := range []struct {
		name  string
		ident Identity
		pub   ed25519.PublicKey
	}{
		{"signer", s, env.Pub},
		{"null", null, null.Sign(env.Order).Pub},
	} {
		if c.ident.PublicEquals(c.pub[:len(c.pub)-1]) {
			t.Fatalf("%s accepted a %d-byte key", c.name, len(c.pub)-1)
		}
	}
}

func TestSignerDeterministic(t *testing.T) {
	a, _ := NewSigner(rng.New(7))
	b, _ := NewSigner(rng.New(7))
	o := LendOrder{Introducer: id.FromUint64(1), NewPeer: id.FromUint64(2), Amount: 0.1, Nonce: 42}
	ea, eb := a.Sign(o), b.Sign(o)
	if !ea.Pub.Equal(eb.Pub) || !bytes.Equal(ea.Sig, eb.Sig) {
		t.Fatal("same seed must produce the same keypair and signature")
	}
}
