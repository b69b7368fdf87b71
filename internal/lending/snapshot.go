package lending

import (
	"fmt"
	"slices"

	"repro/internal/arena"
	"repro/internal/id"
)

// Checkpoint support. The protocol's serializable state is everything a
// restored run's future decisions can observe that the world's peer
// records do not carry: per-node score-manager boot nonces and flags,
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

// BootNonceRecord is one accepted bootstrap credit at a score manager.
type BootNonceRecord struct {
	Peer  id.ID
	Nonce uint64
}

// SMRecord is the lending bookkeeping of one score-manager node.
type SMRecord struct {
	Node      id.ID
	BootNonce []BootNonceRecord
	Flagged   []id.ID
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
// It holds no signing identity, since each peer's world record carries
// its own, and no manager's last lend or reward nonce, since every copy
// those drop arrives inside the call that sent it and no checkpoint is
// cut inside a call.
type State struct {
	SM      []SMRecord
	Stakes  []StakeRecord
	Flagged []id.ID
	Nonce   uint64
	Stats   Stats
}

// sortedKeys returns the map's keys in ascending identifier order, nil
// for an empty map.
func sortedKeys[V any](m map[id.ID]V) []id.ID {
	keys := slices.Grow([]id.ID(nil), len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, id.ID.Cmp)
	return keys
}

// ExportState captures the protocol's state for a checkpoint. One pass
// counts the managers' credits and flags, so that every manager record's
// lists are cut from one table of each kind (arena.Piece); each list maps
// its column's handles back to identifiers and is sorted in place.
func (p *Protocol) ExportState() State {
	st := State{Nonce: p.nonce, Stats: p.stats}
	var credits, flags int
	for i := range p.slots {
		if sm := p.slots[i].sm; sm != nil {
			credits += len(sm.bootNonce)
			flags += len(sm.flagged)
		}
	}
	// One walk of the slots in ascending identifier order fills the
	// manager table, made at its final length from the slot count.
	st.SM = slices.Grow(st.SM, p.smCount)
	nonces := make([]BootNonceRecord, 0, credits)
	flagged := make([]id.ID, 0, flags)
	for _, h := range p.handles.SortedByID() {
		if int(h) >= len(p.slots) || p.slots[h].sm == nil {
			continue
		}
		pid, _ := p.handles.ID(h)
		sm := p.slots[h].sm
		rec := SMRecord{Node: pid}
		from := len(flagged)
		for _, f := range sm.flagged {
			peer, _ := p.handles.ID(f)
			flagged = append(flagged, peer)
		}
		rec.Flagged = arena.Piece(flagged, from)
		slices.SortFunc(rec.Flagged, id.ID.Cmp)
		from = len(nonces)
		for _, e := range sm.bootNonce {
			peer, _ := p.handles.ID(e.newcomer)
			nonces = append(nonces, BootNonceRecord{Peer: peer, Nonce: e.nonce.Uint64()})
		}
		rec.BootNonce = arena.Piece(nonces, from)
		slices.SortFunc(rec.BootNonce, func(a, b BootNonceRecord) int { return a.Peer.Cmp(b.Peer) })
		st.SM = append(st.SM, rec)
	}
	st.Stakes = slices.Grow(st.Stakes, len(p.intro))
	for _, newcomer := range sortedKeys(p.intro) {
		rec := p.intro[newcomer]
		st.Stakes = append(st.Stakes, StakeRecord{
			Newcomer:   newcomer,
			Introducer: rec.introducer,
			Amount:     rec.amount,
			Nonce:      rec.nonce,
			State:      rec.state,
		})
	}
	st.Flagged = sortedKeys(p.flagged)
	return st
}

// RestoreState installs a checkpointed state into a freshly constructed
// protocol (same params, engine, bus, net, events and retain flag as the
// captured one). It registers no peer: the restoring world registers
// each live peer, with the identity its own record carries, through
// RegisterPeer. A table out of the strictly ascending order every export
// writes (which covers a duplicate record) is refused with an error
// naming the table and the record, before anything is installed. So is a
// manager record that holds neither a credit nor a flag, since a manager
// keeps state only once it holds one or the other. The managers' states
// are cut from one array, one per record: a fresh protocol holds none,
// and the ascending order names each node once. Their columns are cut
// from one table of each kind, sized by a counting pass, filled in
// identifier order and sorted by handle in place.
func (p *Protocol) RestoreState(st State) error {
	if err := checkOrder(st); err != nil {
		return fmt.Errorf("lending: restore: %w", err)
	}
	var credits, flags int
	for _, rec := range st.SM {
		if len(rec.BootNonce) == 0 && len(rec.Flagged) == 0 {
			return fmt.Errorf("lending: restore: score manager %s holds neither a credit nor a flag", rec.Node.Short())
		}
		credits += len(rec.BootNonce)
		flags += len(rec.Flagged)
	}
	states := make([]smLendState, len(st.SM))
	nonces := make([]nonceEntry, credits)
	flagged := make([]arena.Ordinal, flags)
	for i, rec := range st.SM {
		sm := &states[i]
		p.ensureSlot(rec.Node).sm = sm
		p.smCount++
		sm.bootNonce = arena.Take(&nonces, len(rec.BootNonce))
		for j, bn := range rec.BootNonce {
			sm.bootNonce[j] = nonceEntry{newcomer: p.handles.Intern(bn.Peer), nonce: arena.Uint64Word(bn.Nonce)}
		}
		slices.SortFunc(sm.bootNonce, func(a, b nonceEntry) int { return byNewcomer(a, b.newcomer) })
		sm.flagged = arena.Take(&flagged, len(rec.Flagged))
		for j, f := range rec.Flagged {
			sm.flagged[j] = p.handles.Intern(f)
		}
		slices.Sort(sm.flagged)
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
		{"score manager", id.Ascending(st.SM, func(r SMRecord) id.ID { return r.Node }, id.ID.Cmp)},
		{"stake for", id.Ascending(st.Stakes, func(r StakeRecord) id.ID { return r.Newcomer }, id.ID.Cmp)},
		{"flagged peer", id.Ascending(st.Flagged, self, id.ID.Cmp)},
	} {
		if t.err != nil {
			return fmt.Errorf("%s %w", t.name, t.err)
		}
	}
	for _, rec := range st.SM {
		for _, t := range []struct {
			name string
			err  error
		}{
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
