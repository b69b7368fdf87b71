package transport

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/id"
	"repro/internal/rng"
)

// The paper requires the introducer to send "a signed message to its score
// managers telling them to deduct the lent amount from its reputation",
// carrying "the identity of both the introducer and the new peer … as well
// as a unique id to prevent duplicate requests". Signer/Envelope implement
// that: Ed25519 signatures over a canonical encoding of the lend order.

// Identity is a node's pluggable signing identity. The default is Signer
// (real Ed25519 keys); NullIdentity is the explicit fidelity opt-out for
// huge simulation sweeps where the per-lend signature floor dominates.
// Verification is split so callers can gate the expensive half behind a
// cache: PublicEquals is the cheap "is this the claimed node's key" check,
// VerifyEnvelope the cryptographic one.
type Identity interface {
	// Sign wraps the order in an envelope attributable to this identity.
	Sign(o LendOrder) Envelope
	// PublicEquals reports whether pub is this identity's verification key.
	PublicEquals(pub ed25519.PublicKey) bool
	// VerifyEnvelope checks that the envelope's signature matches its own
	// public key; callers check PublicEquals first.
	VerifyEnvelope(env Envelope) bool
}

// Signer holds a node's Ed25519 keypair, generated lazily on first use:
// most simulated peers never sign anything (only introducers and auditing
// score managers do), and key generation is a scalar multiplication —
// expensive enough to dominate the arrival path if done eagerly.
type Signer struct {
	src  *rng.Source
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// detRand adapts an rng.Source to io.Reader so key generation is
// deterministic under a simulation seed.
type detRand struct{ src *rng.Source }

func (d detRand) Read(p []byte) (int, error) {
	for i := 0; i < len(p); i += 8 {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], d.src.Uint64())
		copy(p[i:], buf[:])
	}
	return len(p), nil
}

// NewSigner wraps a deterministic source as a signing identity. The
// keypair itself is derived on first use; the source is private to this
// signer, so the deferral cannot perturb any other random stream and whole
// simulation runs stay reproducible.
func NewSigner(src *rng.Source) (*Signer, error) {
	if src == nil {
		return nil, errors.New("transport: signer needs a randomness source")
	}
	return &Signer{src: src}, nil
}

// materialize derives the keypair from the signer's source if it has not
// been derived yet.
func (s *Signer) materialize() {
	if s.priv != nil {
		return
	}
	pub, priv, err := ed25519.GenerateKey(detRand{s.src})
	if err != nil {
		// detRand cannot fail, and ed25519.GenerateKey has no other
		// error path for a working reader.
		//replend:allow nopanic construction-time invariant: the deterministic reader never errors
		panic(fmt.Sprintf("transport: generating keypair: %v", err))
	}
	s.pub, s.priv = pub, priv
}

// PublicEquals reports whether pub is this signer's verification key,
// deriving the keypair if needed.
func (s *Signer) PublicEquals(pub ed25519.PublicKey) bool {
	s.materialize()
	return s.pub.Equal(pub)
}

// VerifyEnvelope runs the Ed25519 check of the envelope against its own
// public key (the caller has already matched that key via PublicEquals).
func (s *Signer) VerifyEnvelope(env Envelope) bool {
	return ed25519.Verify(env.Pub, env.Order.Encode(), env.Sig)
}

// nullTag fills the 12 public-key bytes past the 20-byte node identifier,
// marking a null identity's pseudo-key.
const nullTag = "null-sign///"

// NullIdentity is the opt-out signing identity: envelopes carry no
// signature and verification only checks that the pseudo public key —
// the owner's identifier padded with a marker — matches the claimed
// sender. Identity binding (a lend order is attributed to exactly one
// node) survives; cryptographic unforgeability is explicitly given up.
// It is one pointer, to its pseudo key, so storing it in an Identity
// allocates nothing; NullKeys makes the keys.
type NullIdentity struct{ pub *[ed25519.PublicKeySize]byte }

// nullChunk is how many pseudo keys NullKeys cuts from one array.
const nullChunk = 1024

// NullKeys makes null identities, cutting their pseudo keys from arrays
// of nullChunk keys: n identities cost n/nullChunk allocations, not n.
// A key is never recycled, so an identity stays valid for as long as
// anything holds it. The zero value is ready to use.
type NullKeys struct{ free [][ed25519.PublicKeySize]byte }

// Identity derives the null identity of a node.
func (k *NullKeys) Identity(owner id.ID) NullIdentity {
	if len(k.free) == 0 {
		k.free = make([][ed25519.PublicKeySize]byte, nullChunk)
	}
	key := &k.free[0]
	k.free = k.free[1:]
	copy(key[:], owner[:])
	copy(key[id.Bytes:], nullTag)
	return NullIdentity{pub: key}
}

// Sign wraps the order in an unsigned envelope carrying the pseudo key.
func (n NullIdentity) Sign(o LendOrder) Envelope { return Envelope{Order: o, Pub: n.pub[:]} }

// PublicEquals reports whether pub is this identity's pseudo key.
func (n NullIdentity) PublicEquals(pub ed25519.PublicKey) bool { return bytes.Equal(n.pub[:], pub) }

// VerifyEnvelope accepts exactly the unsigned envelopes this identity
// produces.
func (n NullIdentity) VerifyEnvelope(env Envelope) bool {
	return len(env.Sig) == 0 && bytes.Equal(n.pub[:], env.Pub)
}

// LendOrder is the canonical content of a signed lend instruction: who
// lends how much to whom, with a unique nonce that score managers use to
// reject duplicate requests.
type LendOrder struct {
	Introducer id.ID
	NewPeer    id.ID
	Amount     float64 // reputation lent, in [0,1]
	Nonce      uint64  // unique per introduction
}

// Encode renders the order in its fixed-width canonical byte form (the
// bytes that get signed).
func (o LendOrder) Encode() []byte {
	buf := make([]byte, 0, 2*id.Bytes+16)
	buf = append(buf, o.Introducer[:]...)
	buf = append(buf, o.NewPeer[:]...)
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], math.Float64bits(o.Amount))
	buf = append(buf, tmp[:]...)
	binary.BigEndian.PutUint64(tmp[:], o.Nonce)
	buf = append(buf, tmp[:]...)
	return buf
}

// Envelope is a signed lend order plus the public key needed to verify it.
type Envelope struct {
	Order LendOrder
	Sig   []byte
	Pub   ed25519.PublicKey
}

// Sign wraps the order in a verified envelope.
func (s *Signer) Sign(o LendOrder) Envelope {
	s.materialize()
	body := o.Encode()
	return Envelope{Order: o, Sig: ed25519.Sign(s.priv, body), Pub: s.pub}
}
