package transport

import (
	"crypto/ed25519"
	"fmt"
	"sort"

	"repro/internal/id"
	"repro/internal/rng"
)

// Checkpoint support for the transport layer. A Signer's externally
// observable behaviour is a pure function of (source state, materialized
// keypair), so capturing those two is enough to continue the exact stream
// of signatures and key derivations. The Bus carries run-relevant state in
// its crash set and activity counters; handlers are re-registered by the
// protocol layer on restore, so they are not part of the capture.

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

// CrashedAddrs returns the currently crashed addresses in ascending ID
// order, for deterministic encoding.
func (b *Bus) CrashedAddrs() []id.ID {
	out := make([]id.ID, 0, len(b.crashed))
	for addr := range b.crashed {
		out = append(out, addr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// RestoreCrashed re-marks the given addresses as crashed. Callers must
// invoke it after all Register calls for the restored membership, since
// Register clears crash flags.
func (b *Bus) RestoreCrashed(addrs []id.ID) {
	for _, addr := range addrs {
		b.crashed[addr] = true
	}
}

// RestoreStats overwrites the activity counters with checkpointed values.
func (b *Bus) RestoreStats(s Stats) { b.stats = s }
