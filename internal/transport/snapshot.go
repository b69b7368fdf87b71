package transport

import (
	"crypto/ed25519"
	"fmt"

	"repro/internal/rng"
)

// Checkpoint support for the transport layer. A Signer's externally
// observable behaviour is a pure function of (source state, materialized
// keypair), so capturing those two is enough to continue the exact stream
// of signatures and key derivations. The Bus's only state is its crash
// flags and activity counters: the world's peer records carry each node's
// crash flag, which restore sets again with Crash, and the world's
// snapshot carries the counters, which RestoreStats sets again.

// SignerState is the serializable state of a Signer. Priv is nil when the
// keypair was never derived — the common case, since most simulated peers
// never sign anything — and the full Ed25519 private key otherwise (the
// public key is its suffix and is re-derived on restore).
type SignerState struct {
	Src  [4]uint64
	Priv []byte
}

// Export captures the signer's state for a checkpoint.
func (s *Signer) Export() SignerState {
	st := SignerState{Src: s.src.State()}
	if s.priv != nil {
		st.Priv = append([]byte(nil), s.priv...)
	}
	return st
}

// SignerFromState reconstructs a Signer from a captured state.
func SignerFromState(st SignerState) (*Signer, error) {
	s := &Signer{src: rng.FromState(st.Src)}
	if st.Priv != nil {
		if len(st.Priv) != ed25519.PrivateKeySize {
			return nil, fmt.Errorf("transport: signer state has %d private key bytes, want %d", len(st.Priv), ed25519.PrivateKeySize)
		}
		s.priv = ed25519.PrivateKey(append([]byte(nil), st.Priv...))
		s.pub = s.priv.Public().(ed25519.PublicKey)
	}
	return s, nil
}

// RestoreStats overwrites the activity counters with checkpointed values.
func (b *Bus) RestoreStats(s Stats) { b.stats = s }
