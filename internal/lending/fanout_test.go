package lending

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/id"
	"repro/internal/rocq"
	"repro/internal/transport"
)

// traceNet is a fakeNet that logs every store the protocol reaches, with
// the bus counters at that moment. The protocol reaches a node's store
// only from that node's handler, so the log is the order in which the
// handlers ran and what the bus had counted when each did.
type traceNet struct {
	*fakeNet
	bus   *transport.Bus
	names map[id.ID]string
	log   []string
}

func (n *traceNet) Store(node id.ID) *rocq.Store {
	st := n.bus.Stats()
	n.log = append(n.log, fmt.Sprintf("%s %d/%d/%d/%d", n.names[node], st.Sent, st.Delivered, st.Crashed, st.NoRoute))
	return n.fakeNet.Store(node)
}

// TestFanOutContract pins how the lend and the audit deliver their
// fan-out: one bus Deliver per copy, in order, and the destination's
// handler called at once when it arrives. The trace lines read
// "node sent/delivered/crashed/noroute", the counters when the node's
// handler reached its store; the introducer's managers are a0..a2 and
// the newcomer's c0..c2.
func TestFanOutContract(t *testing.T) {
	setup := func(t *testing.T) (h *harness, net *traceNet, intro, newcomer id.ID) {
		h = newHarness(t)
		intro, a := h.addPeer("introducer", 1.0)
		newcomer, c := h.addPeer("newcomer", -1)
		net = &traceNet{fakeNet: h.net, bus: h.bus, names: map[id.ID]string{}}
		for i := range a {
			net.names[a[i]] = fmt.Sprintf("a%d", i)
			net.names[c[i]] = fmt.Sprintf("c%d", i)
		}
		h.proto.net = net
		return h, net, intro, newcomer
	}
	lend := func(t *testing.T, h *harness, intro, newcomer id.ID) {
		t.Helper()
		h.proto.Begin(newcomer, intro, true)
		h.engine.RunUntil(1000)
		if len(h.admitted) != 1 {
			t.Fatalf("admitted = %v, refused = %v", h.admitted, h.refused)
		}
	}
	expect := func(t *testing.T, h *harness, net *traceNet, trace []string, stats transport.Stats) {
		t.Helper()
		if !slices.Equal(net.log, trace) {
			t.Errorf("trace %q, want %q", net.log, trace)
		}
		if st := h.bus.Stats(); st != stats {
			t.Errorf("bus stats %+v, want %+v", st, stats)
		}
	}

	// a0 debits and credits c0..c2 before a1 hears the lend. The copies
	// a1 and a2 forward are redundant: c0..c2 drop them without a store.
	t.Run("credit fan-out completes before the next lend", func(t *testing.T) {
		h, net, intro, newcomer := setup(t)
		lend(t, h, intro, newcomer)
		expect(t, h, net,
			[]string{"a0 1/1/0/0", "c0 2/2/0/0", "c1 3/3/0/0", "c2 4/4/0/0", "a1 5/5/0/0", "a2 9/9/0/0"},
			transport.Stats{Sent: 12, Delivered: 12})
	})

	// a1 and c1 are crashed and c2 unregistered: each copy to them is
	// counted when its turn comes, and none runs a handler.
	t.Run("crashed or unregistered destination counted at its turn", func(t *testing.T) {
		h, net, intro, newcomer := setup(t)
		a, c := h.net.sms[intro], h.net.sms[newcomer]
		h.bus.Crash(a[1])
		h.bus.Crash(c[1])
		h.proto.UnregisterPeer(c[2])
		lend(t, h, intro, newcomer)
		expect(t, h, net,
			[]string{"a0 1/1/0/0", "c0 2/2/0/0", "a2 6/3/2/1"},
			transport.Stats{Sent: 9, Delivered: 4, Crashed: 3, NoRoute: 2})
		if got := h.proto.ManagerStates(); got != 1 {
			t.Errorf("%d managers hold lending state, want only c0", got)
		}
	})

	// The introducer's set is padded to [a0 a0 a1]: the repeat is sent
	// and delivered, but a0 is debited once.
	t.Run("padded repeat counted and debited once", func(t *testing.T) {
		h, net, intro, newcomer := setup(t)
		a := h.net.sms[intro]
		h.net.sms[intro] = []id.ID{a[0], a[0], a[1]}
		lend(t, h, intro, newcomer)
		expect(t, h, net,
			[]string{"a0 1/1/0/0", "c0 2/2/0/0", "c1 3/3/0/0", "c2 4/4/0/0", "a1 6/6/0/0"},
			transport.Stats{Sent: 9, Delivered: 9})
	})

	// c0 signs one stake return and credits a0..a2; the copies c1 and c2
	// send reach managers that have credited, so they sign nothing.
	t.Run("audit credits each manager once and signs no repeat", func(t *testing.T) {
		h, net, intro, newcomer := setup(t)
		lend(t, h, intro, newcomer)
		signs, verifies := 0, 0
		for _, pid := range slices.Concat([]id.ID{intro, newcomer}, h.net.sms[intro], h.net.sms[newcomer]) {
			ident, _ := h.proto.Identity(pid)
			h.proto.RegisterPeer(pid, countingIdentity{ident, &signs, &verifies})
		}
		for _, sm := range h.net.sms[newcomer] {
			h.net.Store(sm).Init(newcomer, 0.8)
		}
		net.log = nil
		h.bus.RestoreStats(transport.Stats{})
		h.proto.Audit(newcomer)
		if len(h.audits) != 1 || !h.audits[0] {
			t.Fatalf("audits = %v", h.audits)
		}
		expect(t, h, net,
			[]string{"a0 1/1/0/0", "a1 2/2/0/0", "a2 3/3/0/0"},
			transport.Stats{Sent: 9, Delivered: 9})
		if signs != 1 || verifies != 0 {
			t.Errorf("the audit made %d signatures and %d full verifications, want 1 and 0", signs, verifies)
		}
	})

	t.Run("RegisterPeer and UnregisterPeer clear a crash flag", func(t *testing.T) {
		h, _, intro, _ := setup(t)
		ident, _ := h.proto.Identity(intro)
		h.bus.Crash(intro)
		h.proto.RegisterPeer(intro, ident)
		if h.bus.IsCrashed(intro) {
			t.Error("RegisterPeer left the crash flag set")
		}
		h.bus.Crash(intro)
		h.proto.UnregisterPeer(intro)
		if h.bus.IsCrashed(intro) {
			t.Error("UnregisterPeer left the crash flag set")
		}
	})
}
