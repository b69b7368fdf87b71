package lending

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/id"
	"repro/internal/transport"
)

// Checkpoint support. The protocol's serializable state is everything a
// restored run's future decisions can observe: identities (with their key
// material and generator positions), per-node score-manager dedup tables,
// stake records, the punishment set, the nonce counter and the activity
// counters. The signature memo is a pure performance memo rebuilt on
// demand, and the waiting-period events in flight live in the engine's
// queue — they are captured there, and restored under the kinds New
// registers.

// IntroWait is the payload of one pending waiting-period event
// ("intro-refuse" or "intro-lend"): the pair whose introduction attempt
// is waiting out the period T.
type IntroWait struct {
	Newcomer   id.ID
	Introducer id.ID
}

// SignerRecord is one registered identity: a real signer's captured
// state, or, with a nil Signer, a stateless null identity re-derived from
// the ID.
type SignerRecord struct {
	ID     id.ID
	Signer *transport.SignerState
}

// BootNonceRecord is one accepted bootstrap credit at a score manager.
type BootNonceRecord struct {
	Peer  id.ID
	Nonce uint64
}

// SMRecord is the lending bookkeeping of one score-manager node.
type SMRecord struct {
	Node       id.ID
	SeenLend   []uint64
	SeenReward []uint64
	BootNonce  []BootNonceRecord
	Flagged    []id.ID
}

// StakeRecord is one admission stake with its lifecycle state.
type StakeRecord struct {
	Newcomer   id.ID
	Introducer id.ID
	Amount     float64
	Nonce      uint64
	State      StakeState
}

// State is the protocol's full serializable state, with every map-backed
// structure flattened into ascending-key order for deterministic encoding.
type State struct {
	Signers []SignerRecord
	SM      []SMRecord
	Stakes  []StakeRecord
	Flagged []id.ID
	Nonce   uint64
	Stats   Stats
}

// sortedIDKeys returns the map's keys in ascending identifier order.
func sortedIDKeys[V any](m map[id.ID]V) []id.ID {
	out := make([]id.ID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// sortedNonces returns the set's members in ascending order.
func sortedNonces(m map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ExportState captures the protocol's state for a checkpoint. It fails on
// identity kinds the format does not know about.
func (p *Protocol) ExportState() (State, error) {
	st := State{Nonce: p.nonce, Stats: p.stats}
	// One walk of the slots in ascending identifier order fills both
	// per-peer tables, each made at its final length from the slot counts.
	st.Signers = slices.Grow(st.Signers, p.identCount)
	st.SM = slices.Grow(st.SM, p.smCount)
	for _, h := range p.handles.SortedByID() {
		if int(h) >= len(p.slots) {
			continue
		}
		pid, _ := p.handles.ID(h)
		slot := &p.slots[h]
		switch ident := slot.ident.(type) {
		case nil:
		case *transport.Signer:
			sst := ident.Export()
			st.Signers = append(st.Signers, SignerRecord{ID: pid, Signer: &sst})
		case transport.NullIdentity:
			st.Signers = append(st.Signers, SignerRecord{ID: pid})
		default:
			return State{}, fmt.Errorf("lending: cannot checkpoint identity type %T for %s", ident, pid.Short())
		}
		if sm := slot.sm; sm != nil {
			rec := SMRecord{
				Node:       pid,
				SeenLend:   sortedNonces(sm.seenLend),
				SeenReward: sortedNonces(sm.seenReward),
				Flagged:    sortedIDKeys(sm.flagged),
			}
			rec.BootNonce = slices.Grow(rec.BootNonce, len(sm.bootNonce))
			for _, peer := range sortedIDKeys(sm.bootNonce) {
				rec.BootNonce = append(rec.BootNonce, BootNonceRecord{Peer: peer, Nonce: sm.bootNonce[peer]})
			}
			st.SM = append(st.SM, rec)
		}
	}
	st.Stakes = slices.Grow(st.Stakes, len(p.intro))
	for _, newcomer := range sortedIDKeys(p.intro) {
		rec := p.intro[newcomer]
		st.Stakes = append(st.Stakes, StakeRecord{
			Newcomer:   newcomer,
			Introducer: rec.introducer,
			Amount:     rec.amount,
			Nonce:      rec.nonce,
			State:      rec.state,
		})
	}
	st.Flagged = sortedIDKeys(p.flagged)
	return st, nil
}

// RestoreState installs a checkpointed state into a freshly constructed
// protocol (same params, engine, bus, net, events and retain flag as the
// captured one). Signers are re-registered through RegisterPeer, which
// also rebuilds the bus handlers; callers restoring bus crash flags must
// do so afterwards. A table out of the strictly ascending order every
// export writes (which covers a duplicate record) is refused with an
// error naming the table and the record, before anything is installed.
func (p *Protocol) RestoreState(st State) error {
	if err := checkOrder(st); err != nil {
		return fmt.Errorf("lending: restore: %w", err)
	}
	// Every signer takes a bus handler and a slot at its handle. The
	// restoring world has interned every live peer already, so the slots
	// grow once, to the handle table's length.
	p.slots = slices.Grow(p.slots, p.handles.Len())
	p.bus.Reserve(len(st.Signers))
	for _, rec := range st.Signers {
		var ident transport.Identity
		if rec.Signer == nil {
			ident = transport.NewNullIdentity(rec.ID)
		} else {
			s, err := transport.SignerFromState(*rec.Signer)
			if err != nil {
				return fmt.Errorf("lending: restore: signer %s: %w", rec.ID.Short(), err)
			}
			ident = s
		}
		p.RegisterPeer(rec.ID, ident)
	}
	for _, rec := range st.SM {
		sm := p.smState(rec.Node)
		sm.seenLend = setOf(rec.SeenLend)
		sm.seenReward = setOf(rec.SeenReward)
		sm.flagged = setOf(rec.Flagged)
		if len(rec.BootNonce) > 0 {
			sm.bootNonce = make(map[id.ID]uint64, len(rec.BootNonce))
			for _, bn := range rec.BootNonce {
				sm.bootNonce[bn.Peer] = bn.Nonce
			}
		}
	}
	for _, rec := range st.Stakes {
		if rec.State < StakePending || rec.State > StakeStranded {
			return fmt.Errorf("lending: restore: stake for %s has unknown state %d", rec.Newcomer.Short(), rec.State)
		}
		p.intro[rec.Newcomer] = &introRecord{
			introducer: rec.Introducer,
			amount:     rec.Amount,
			nonce:      rec.Nonce,
			state:      rec.State,
		}
	}
	for _, f := range st.Flagged {
		p.flagged[f] = true
	}
	p.nonce = st.Nonce
	p.stats = st.Stats
	return nil
}

// checkOrder refuses any table of st, or of one of its score-manager
// records, that is not strictly ascending.
func checkOrder(st State) error {
	self := func(d id.ID) id.ID { return d }
	for _, t := range []struct {
		name string
		err  error
	}{
		{"signer", id.Ascending(st.Signers, func(r SignerRecord) id.ID { return r.ID }, id.ID.Cmp)},
		{"score manager", id.Ascending(st.SM, func(r SMRecord) id.ID { return r.Node }, id.ID.Cmp)},
		{"stake for", id.Ascending(st.Stakes, func(r StakeRecord) id.ID { return r.Newcomer }, id.ID.Cmp)},
		{"flagged peer", id.Ascending(st.Flagged, self, id.ID.Cmp)},
	} {
		if t.err != nil {
			return fmt.Errorf("%s %w", t.name, t.err)
		}
	}
	nonce := func(n uint64) uint64 { return n }
	for _, rec := range st.SM {
		for _, t := range []struct {
			name string
			err  error
		}{
			{"seen-lend nonce", id.Ascending(rec.SeenLend, nonce, cmp.Compare[uint64])},
			{"seen-reward nonce", id.Ascending(rec.SeenReward, nonce, cmp.Compare[uint64])},
			{"boot nonce for", id.Ascending(rec.BootNonce, func(r BootNonceRecord) id.ID { return r.Peer }, id.ID.Cmp)},
			{"flagged peer", id.Ascending(rec.Flagged, self, id.ID.Cmp)},
		} {
			if t.err != nil {
				return fmt.Errorf("score manager %s: %s %w", rec.Node.Short(), t.name, t.err)
			}
		}
	}
	return nil
}

// setOf returns the keys as a set, or nil for none: a manager's map is
// made by its first write.
func setOf[K comparable](keys []K) map[K]bool {
	if len(keys) == 0 {
		return nil
	}
	set := make(map[K]bool, len(keys))
	for _, k := range keys {
		set[k] = true
	}
	return set
}
