package transport

import (
	"testing"

	"repro/internal/id"
	"repro/internal/rng"
)

func TestSignerImplementsIdentity(t *testing.T) {
	s, err := NewSigner(rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var ident Identity = s
	order := LendOrder{Introducer: id.FromUint64(1), NewPeer: id.FromUint64(2), Amount: 0.1, Nonce: 7}
	env := ident.Sign(order)
	if !ident.PublicEquals(env.Pub) {
		t.Fatal("signer does not recognise its own key")
	}
	if !ident.VerifyEnvelope(env) {
		t.Fatal("signer rejects its own envelope")
	}
	env.Order.Amount = 0.9
	if ident.VerifyEnvelope(env) {
		t.Fatal("tampered order verified")
	}
}

func TestNullIdentity(t *testing.T) {
	var keys NullKeys
	owner := id.HashString("null-peer")
	n := keys.Identity(owner)
	order := LendOrder{Introducer: owner, NewPeer: id.FromUint64(5), Amount: 0.1, Nonce: 3}
	env := n.Sign(order)
	if len(env.Sig) != 0 {
		t.Fatal("null identity produced a signature")
	}
	if !n.PublicEquals(env.Pub) || !n.VerifyEnvelope(env) {
		t.Fatal("null identity rejects its own envelope")
	}
	// Identity binding survives: another node's null identity must not
	// accept this envelope.
	other := keys.Identity(id.HashString("other-peer"))
	if other.PublicEquals(env.Pub) || other.VerifyEnvelope(env) {
		t.Fatal("null envelope verified against the wrong identity")
	}
	// A real signature on a null-claimed envelope is rejected too.
	env.Sig = []byte{1, 2, 3}
	if n.VerifyEnvelope(env) {
		t.Fatal("null identity accepted a signed envelope")
	}
}

// TestNullKeysCutFromChunks pins what a null identity costs: a chunk of
// keys per nullChunk identities, and nothing to store one in an Identity.
func TestNullKeysCutFromChunks(t *testing.T) {
	var keys NullKeys
	idents := make([]Identity, nullChunk)
	owner := id.HashString("chunked")
	allocs := testing.AllocsPerRun(1, func() {
		for i := range idents {
			idents[i] = keys.Identity(owner)
		}
	})
	if allocs != 1 {
		t.Fatalf("%d null identities made %v allocations, want 1", nullChunk, allocs)
	}
	env := idents[0].Sign(LendOrder{Introducer: owner})
	for i, ident := range idents {
		if !ident.PublicEquals(env.Pub) {
			t.Fatalf("identity %d does not recognise its owner's key", i)
		}
	}
}
