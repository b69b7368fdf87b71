package transport

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/id"
	"repro/internal/rng"
)

func TestSynchronousDelivery(t *testing.T) {
	b := NewBus()
	a, c := id.FromUint64(1), id.FromUint64(2)
	var got []Message
	b.Register(c, func(m Message) { got = append(got, m) })
	b.Send(Message{From: a, To: c, Kind: "ping", Payload: 7})
	if len(got) != 1 || got[0].Kind != "ping" || got[0].Payload.(int) != 7 {
		t.Fatalf("delivery failed: %+v", got)
	}
	st := b.Stats()
	if st.Sent != 1 || st.Delivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNoRouteCounted(t *testing.T) {
	b := NewBus()
	b.Send(Message{To: id.FromUint64(99), Kind: "x"})
	if st := b.Stats(); st.NoRoute != 1 || st.Delivered != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCrashSwallowsAndRecoverRestores(t *testing.T) {
	b := NewBus()
	dst := id.FromUint64(5)
	delivered := 0
	b.Register(dst, func(Message) { delivered++ })
	b.Crash(dst)
	if !b.IsCrashed(dst) {
		t.Fatal("IsCrashed should be true")
	}
	b.Send(Message{To: dst, Kind: "x"})
	if delivered != 0 {
		t.Fatal("crashed node received a message")
	}
	b.Recover(dst)
	b.Send(Message{To: dst, Kind: "x"})
	if delivered != 1 {
		t.Fatal("recovered node did not receive")
	}
	if st := b.Stats(); st.Crashed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRegisterClearsCrash(t *testing.T) {
	b := NewBus()
	dst := id.FromUint64(5)
	b.Register(dst, func(Message) {})
	b.Crash(dst)
	b.Register(dst, func(Message) {})
	if b.IsCrashed(dst) {
		t.Fatal("Register should clear crash state")
	}
}

func TestUnregister(t *testing.T) {
	b := NewBus()
	dst := id.FromUint64(5)
	b.Register(dst, func(Message) {})
	b.Unregister(dst)
	b.Send(Message{To: dst})
	if st := b.Stats(); st.NoRoute != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSendBatchContract pins what SendBatch promises: one Send per
// destination in to order, crash and route checks at each destination's
// own turn, and a message a handler sends mid-batch delivered before the
// next destination.
func TestSendBatchContract(t *testing.T) {
	b := NewBus()
	from, echo := id.FromUint64(9), id.FromUint64(10)
	first, crashed, unrouted, second, third := id.FromUint64(1), id.FromUint64(2), id.FromUint64(3), id.FromUint64(4), id.FromUint64(5)
	var log []string
	b.Register(first, func(Message) {
		if st := b.Stats(); st.Crashed != 0 || st.NoRoute != 0 {
			t.Errorf("first destination saw later destinations counted: %+v", st)
		}
		log = append(log, "first")
		b.Send(Message{From: first, To: echo, Kind: "echo"})
		b.Crash(third) // checked at its own turn, so it must not receive
	})
	b.Register(echo, func(Message) { log = append(log, "echo") })
	b.Register(crashed, func(Message) { log = append(log, "crashed") })
	b.Crash(crashed)
	b.Register(second, func(m Message) {
		if st := b.Stats(); st.Crashed != 1 || st.NoRoute != 1 {
			t.Errorf("second destination's turn: stats %+v, want one crashed and one unrouted counted", st)
		}
		if m.From != from || m.Kind != "credit" || m.Payload != "pay" {
			t.Errorf("second destination got %+v", m)
		}
		log = append(log, "second")
	})
	b.Register(third, func(Message) { log = append(log, "third") })

	b.SendBatch(from, "credit", "pay", []id.ID{first, crashed, unrouted, second, third})
	if got, want := fmt.Sprint(log), "[first echo second]"; got != want {
		t.Fatalf("delivery order %s, want %s", got, want)
	}
	want := Stats{Sent: 6, Delivered: 3, Crashed: 2, NoRoute: 1}
	if st := b.Stats(); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

func TestSendBatchEmpty(t *testing.T) {
	b := NewBus()
	b.SendBatch(id.FromUint64(1), "credit", nil, nil)
	if st := b.Stats(); st != (Stats{}) {
		t.Fatalf("empty batch touched stats: %+v", st)
	}
}

func TestRegisterNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBus().Register(id.FromUint64(1), nil)
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
	null := NewNullIdentity(owner)
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
