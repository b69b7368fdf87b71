package lending

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/arena"
	"repro/internal/checkpoint"
	"repro/internal/id"
	"repro/internal/rocq"
	"repro/internal/sim"
	"repro/internal/transport"
)

// oraclePeers are the identities a manager script draws from. The first
// oracleManagers of them host every placement, so each manager holds
// credits for many newcomers and its columns grow past their first 8.
var oraclePeers = func() []id.ID {
	ids := make([]id.ID, 40)
	for i := range ids {
		ids[i] = id.HashString(fmt.Sprintf("lending-oracle-%d", i))
	}
	return ids
}()

const oracleManagers = 8

// oracleNet is the script's network: fixed placements over the first
// oracleManagers peers (peer 1's repeats a manager, as a padded placement
// does), a store per node, and every peer reading reputation 1, so every
// lend passes the reputation floor and only the managers' bookkeeping
// decides admission.
type oracleNet struct {
	sms    map[id.ID][]id.ID
	stores map[id.ID]*rocq.Store
}

func newOracleNet(numSM int) *oracleNet {
	n := &oracleNet{sms: map[id.ID][]id.ID{}, stores: map[id.ID]*rocq.Store{}}
	for i, pid := range oraclePeers {
		sms := make([]id.ID, numSM)
		for j := range sms {
			sms[j] = oraclePeers[(i*(2*j+1)+3*j)%oracleManagers]
		}
		n.sms[pid] = sms
	}
	return n
}

func (n *oracleNet) ScoreManagers(p id.ID) []id.ID           { return n.sms[p] }
func (n *oracleNet) QueryReputation(p id.ID) (float64, bool) { return 1, true }

func (n *oracleNet) Store(node id.ID) *rocq.Store {
	s, ok := n.stores[node]
	if !ok {
		s = rocq.NewStore(rocq.DefaultParams())
		n.stores[node] = s
	}
	return s
}

// managerModel is an identifier-keyed model of the lend path and the
// managers' bookkeeping: plain maps, with executeLend, onLend, onCredit,
// RegisterPeer, UnregisterPeer and ExportState written out afresh. It
// shares no table code with the protocol.
type managerModel struct {
	params     Params
	net        *oracleNet
	registered map[id.ID]bool
	crashed    map[id.ID]bool
	bootNonce  map[id.ID]map[id.ID]uint64 // manager -> newcomer -> nonce
	smFlagged  map[id.ID]map[id.ID]bool   // manager -> newcomers it flagged
	stakes     map[id.ID]StakeRecord
	flagged    map[id.ID]bool
	nonce      uint64
	stats      Stats
	admitted   [][2]id.ID // (newcomer, introducer) per admission
	flags      []id.ID
}

func newManagerModel(p Params, net *oracleNet) *managerModel {
	return &managerModel{
		params: p, net: net,
		registered: map[id.ID]bool{}, crashed: map[id.ID]bool{},
		bootNonce: map[id.ID]map[id.ID]uint64{}, smFlagged: map[id.ID]map[id.ID]bool{},
		stakes: map[id.ID]StakeRecord{}, flagged: map[id.ID]bool{},
	}
}

func (m *managerModel) deliver(node id.ID) bool { return !m.crashed[node] && m.registered[node] }

func (m *managerModel) lend(newcomer, introducer id.ID) (transport.LendOrder, bool) {
	if !m.registered[introducer] {
		m.stats.RefusedProtocol++
		return transport.LendOrder{}, false
	}
	m.nonce++
	order := transport.LendOrder{Introducer: introducer, NewPeer: newcomer, Amount: m.params.IntroAmt, Nonce: m.nonce}
	sms := m.net.ScoreManagers(introducer)
	for i, node := range sms {
		if m.deliver(node) && !slices.Contains(sms[:i], node) {
			m.onLend(order)
		}
	}
	accepted := false
	for _, sm := range m.net.ScoreManagers(newcomer) {
		if n, ok := m.bootNonce[sm][newcomer]; ok && n == order.Nonce {
			accepted = true
		}
	}
	switch {
	case m.flagged[newcomer]:
	case !accepted:
		m.stats.RefusedProtocol++
	default:
		m.stakes[newcomer] = StakeRecord{Newcomer: newcomer, Introducer: introducer, Amount: order.Amount, Nonce: order.Nonce, State: StakePending}
		m.stats.StakedMass += order.Amount
		m.stats.PendingMass += order.Amount
		m.stats.Admitted++
		m.admitted = append(m.admitted, [2]id.ID{newcomer, introducer})
	}
	return order, true
}

// onLend is one introducer manager receiving the order: the credit goes
// out to every newcomer manager the bus delivers to.
func (m *managerModel) onLend(order transport.LendOrder) {
	if !m.registered[order.Introducer] {
		return
	}
	for _, sm := range m.net.ScoreManagers(order.NewPeer) {
		if m.deliver(sm) {
			m.onCredit(sm, order)
		}
	}
}

func (m *managerModel) onCredit(node id.ID, order transport.LendOrder) {
	if !m.registered[order.Introducer] || m.smFlagged[node][order.NewPeer] {
		return
	}
	prev, ok := m.bootNonce[node][order.NewPeer]
	switch {
	case !ok:
		if m.bootNonce[node] == nil {
			m.bootNonce[node] = map[id.ID]uint64{}
		}
		m.bootNonce[node][order.NewPeer] = order.Nonce
	case prev != order.Nonce:
		if m.smFlagged[node] == nil {
			m.smFlagged[node] = map[id.ID]bool{}
		}
		m.smFlagged[node][order.NewPeer] = true
		if !m.flagged[order.NewPeer] {
			m.flagged[order.NewPeer] = true
			m.stats.DuplicateAttempts++
			m.flags = append(m.flags, order.NewPeer)
		}
	}
}

func (m *managerModel) register(pid id.ID) {
	m.registered[pid] = true
	delete(m.crashed, pid)
}

func (m *managerModel) unregister(pid id.ID) {
	delete(m.registered, pid)
	delete(m.crashed, pid)
	delete(m.bootNonce, pid)
	delete(m.smFlagged, pid)
	delete(m.stakes, pid)
}

func (m *managerModel) managerStates() int {
	n := 0
	for _, pid := range oraclePeers {
		if len(m.bootNonce[pid]) > 0 || len(m.smFlagged[pid]) > 0 {
			n++
		}
	}
	return n
}

// exportState writes the model's state as ExportState does: every table
// in ascending identifier order, and an empty list as nil.
func (m *managerModel) exportState() State {
	sorted := slices.SortedFunc(slices.Values(oraclePeers), id.ID.Cmp)
	st := State{Nonce: m.nonce, Stats: m.stats}
	for _, node := range sorted {
		rec := SMRecord{Node: node}
		for _, peer := range sorted {
			if n, ok := m.bootNonce[node][peer]; ok {
				rec.BootNonce = append(rec.BootNonce, BootNonceRecord{Peer: peer, Nonce: n})
			}
			if m.smFlagged[node][peer] {
				rec.Flagged = append(rec.Flagged, peer)
			}
		}
		if len(rec.BootNonce) > 0 || len(rec.Flagged) > 0 {
			st.SM = append(st.SM, rec)
		}
	}
	for _, peer := range sorted {
		if rec, ok := m.stakes[peer]; ok {
			st.Stakes = append(st.Stakes, rec)
		}
		if m.flagged[peer] {
			st.Flagged = append(st.Flagged, peer)
		}
	}
	return st
}

// managerScript is one protocol under a script, with what its events
// reported.
type managerScript struct {
	t        *testing.T
	params   Params
	net      *oracleNet
	keys     transport.NullKeys
	idents   map[id.ID]transport.Identity
	bus      *transport.Bus
	proto    *Protocol
	admitted [][2]id.ID
	flags    []id.ID
}

// build makes a protocol over a fresh engine and bus that numbers peers
// in table.
func (s *managerScript) build(table *arena.Ordinals) {
	s.bus = transport.NewBus()
	events := Events{
		Admitted: func(n, i id.ID, _ sim.Tick) { s.admitted = append(s.admitted, [2]id.ID{n, i}) },
		Flagged:  func(p id.ID, _ sim.Tick) { s.flags = append(s.flags, p) },
	}
	proto, err := New(s.params, sim.NewEngine(), s.bus, s.net, table, events)
	if err != nil {
		s.t.Fatal(err)
	}
	s.proto = proto
}

// permutedTable returns a handle table holding the first n%41 peers of
// the order key picks, i ↦ (mul·i + add) mod 40 with mul coprime to 40;
// the rest are numbered on first use.
func permutedTable(key, n byte) *arena.Ordinals {
	table := arena.NewOrdinals()
	muls := []int{1, 3, 7, 9, 11, 13, 17, 19}
	mul, add := muls[int(key>>5)], int(key&31)
	for i := 0; i < int(n)%(len(oraclePeers)+1); i++ {
		table.Intern(oraclePeers[(mul*i+add)%len(oraclePeers)])
	}
	return table
}

// maxManagerSteps bounds one script, so a long fuzz input stays fast.
const maxManagerSteps = 300

// runManagerScript decodes script into steps over one protocol and the
// model and compares them after every step. Two header bytes pick the
// first handle table's order; each step is three bytes, an operation and
// two arguments: a lend (a fresh credit, or a duplicate when the
// newcomer was lent to before, each delivered in redundant copies), a
// replay of the last order at one introducer manager, a departure, a
// rejoin, a crash or recovery, and an export/restore round trip into a
// protocol numbering peers in another order.
func runManagerScript(t *testing.T, script []byte) {
	var key, n byte
	if len(script) >= 2 {
		key, n, script = script[0], script[1], script[2:]
	}
	p := params()
	s := &managerScript{t: t, params: p, net: newOracleNet(p.NumSM), idents: map[id.ID]transport.Identity{}}
	m := newManagerModel(p, s.net)
	s.build(permutedTable(key, n))
	for _, pid := range oraclePeers {
		s.idents[pid] = s.keys.Identity(pid)
		s.proto.RegisterPeer(pid, s.idents[pid])
		m.register(pid)
	}
	var last transport.LendOrder
	lent := false
	for step := 0; step < maxManagerSteps && len(script) >= 3; step++ {
		op, a, b := script[0], script[1], script[2]
		script = script[3:]
		x, y := oraclePeers[int(a)%len(oraclePeers)], oraclePeers[int(b)%len(oraclePeers)]
		var what string
		switch op % 6 {
		case 0:
			what = fmt.Sprintf("lend to %s by %s", x.Short(), y.Short())
			s.proto.executeLend(x, y)
			if order, ok := m.lend(x, y); ok {
				last, lent = order, true
			}
		case 1:
			if !lent {
				continue
			}
			node := s.net.ScoreManagers(last.Introducer)[int(a)%p.NumSM]
			what = fmt.Sprintf("replay of nonce %d at %s", last.Nonce, node.Short())
			if s.proto.deliver(node) {
				s.proto.onLend(node, s.idents[last.Introducer].Sign(last))
			}
			if m.deliver(node) {
				m.onLend(last)
			}
		case 2:
			what = "departure of " + x.Short()
			s.proto.UnregisterPeer(x)
			m.unregister(x)
		case 3:
			what = "rejoin of " + x.Short()
			s.proto.RegisterPeer(x, s.idents[x])
			m.register(x)
		case 4:
			what = "crash or recovery of " + x.Short()
			if m.crashed[x] {
				s.bus.Recover(x)
				delete(m.crashed, x)
			} else {
				s.bus.Crash(x)
				m.crashed[x] = true
			}
		case 5:
			what = "restore"
			st := s.proto.ExportState()
			s.build(permutedTable(a, b))
			if err := s.proto.RestoreState(st); err != nil {
				t.Fatalf("step %d: restore: %v", step, err)
			}
			// As a restoring world does: register each member, then set
			// the crash flags registering clears.
			for _, pid := range oraclePeers {
				if m.registered[pid] {
					s.proto.RegisterPeer(pid, s.idents[pid])
				}
			}
			for _, pid := range oraclePeers {
				if m.crashed[pid] {
					s.bus.Crash(pid)
				}
			}
		}
		compareWithModel(t, step, what, s, m)
	}
}

// compareWithModel checks the admissions, flags, counters and sealed
// export of the protocol against the model's.
func compareWithModel(t *testing.T, step int, what string, s *managerScript, m *managerModel) {
	t.Helper()
	if !slices.Equal(s.admitted, m.admitted) {
		t.Fatalf("step %d (%s): %d admissions, model %d (or in another order)", step, what, len(s.admitted), len(m.admitted))
	}
	if !slices.Equal(s.flags, m.flags) {
		t.Fatalf("step %d (%s): flagged %d peers, model %d (or in another order)", step, what, len(s.flags), len(m.flags))
	}
	if got := s.proto.Stats(); got != m.stats {
		t.Fatalf("step %d (%s): Stats() = %+v, model %+v", step, what, got, m.stats)
	}
	if got, want := s.proto.ManagerStates(), m.managerStates(); got != want {
		t.Fatalf("step %d (%s): %d manager states, model %d", step, what, got, want)
	}
	got, err := checkpoint.Seal(checkpoint.KindWorld, s.proto.ExportState())
	if err != nil {
		t.Fatalf("step %d (%s): sealing the export: %v", step, what, err)
	}
	want, err := checkpoint.Seal(checkpoint.KindWorld, m.exportState())
	if err != nil {
		t.Fatalf("step %d (%s): sealing the model's export: %v", step, what, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("step %d (%s): ExportState seals to %d bytes that differ from the model's %d:\n got %+v\nwant %+v", step, what, len(got), len(want), s.proto.ExportState(), m.exportState())
	}
}

// managerSeeds are the fuzz target's seed corpus: short edge cases, a
// structured script of fresh, duplicate and replayed lends with
// departures, rejoins, crashes and restores under other intern orders,
// and pseudo-random scripts from a fixed LCG.
func managerSeeds() [][]byte {
	seeds := [][]byte{
		nil,
		{0, 0},
		{9, 40, 0, 12, 20, 0, 12, 21, 1, 0, 0},
		{77, 3, 0, 30, 31, 2, 1, 0, 0, 30, 32, 5, 200, 17},
	}
	structured := []byte{5, 20}
	for round := 0; round < 3; round++ {
		for i := 0; i < 40; i++ {
			newcomer, introducer := byte(i+round*13), byte(i*7+round)
			structured = append(structured, 0, newcomer, introducer)
			if i%5 == round {
				structured = append(structured, 1, byte(i), 0) // a redundant or re-accepted replay
			}
			if i%9 == round {
				structured = append(structured, 0, newcomer, introducer+1) // a duplicate introduction
			}
		}
		structured = append(structured,
			4, byte(round*3), 0, 2, byte(round+1), 0, 0, 10, 11, 3, byte(round+1), 0, 4, byte(round*3), 0,
			5, byte(round*85+32), byte(round*13+7))
	}
	seeds = append(seeds, structured)
	x := uint64(1)
	for n := 0; n < 4; n++ {
		script := make([]byte, 2+3*250)
		for i := range script {
			x = x*6364136223846793005 + 1442695040888963407
			script[i] = byte(x >> 56)
		}
		seeds = append(seeds, script)
	}
	return seeds
}

// FuzzManagerMatchesOracle runs fuzzed scripts of fresh, redundant and
// duplicate credits, departures, rejoins, crashes and export/restore
// round trips through handle tables numbered in other orders, and checks
// the protocol against an identifier-keyed map model after every step:
// the same admissions, flags and Stats, and an ExportState that seals to
// the same bytes.
func FuzzManagerMatchesOracle(f *testing.F) {
	for _, seed := range managerSeeds() {
		f.Add(seed)
	}
	f.Fuzz(runManagerScript)
}
