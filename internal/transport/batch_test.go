package transport

import (
	"fmt"
	"testing"

	"repro/internal/id"
	"repro/internal/rng"
	"repro/internal/sim"
)

// batchScript is one randomized fan-out scenario: a destination set
// with some nodes crashed or unregistered, an optional loss
// probability and delivery delay, and a tail of nodes that crash
// mid-delivery (the first handler invocation crashes them, so later
// deliveries in the same fan-out must see the flag).
type batchScript struct {
	dests      int
	crashed    map[int]bool
	unrouted   map[int]bool
	midCrash   map[int]bool // crashed by the first delivered handler
	lossProb   float64
	delay      sim.Tick
	extraAfter bool // schedule a competing event after the fan-out
}

func randomBatchScript(r *rng.Source) batchScript {
	s := batchScript{
		dests:    2 + int(r.Uint64()%9), // 2..10, the NumSM range
		crashed:  map[int]bool{},
		unrouted: map[int]bool{},
		midCrash: map[int]bool{},
	}
	for i := 0; i < s.dests; i++ {
		switch r.Uint64() % 5 {
		case 0:
			s.crashed[i] = true
		case 1:
			s.unrouted[i] = true
		case 2:
			if i > 0 {
				s.midCrash[i] = true
			}
		}
	}
	if r.Bernoulli(0.5) {
		s.lossProb = 0.3
	}
	if r.Bernoulli(0.5) {
		s.delay = sim.Tick(1 + r.Uint64()%3)
	}
	s.extraAfter = r.Bernoulli(0.5)
	return s
}

// runScript executes the fan-out through either the batched or the
// per-message path and returns a full observation trace: handler
// invocation order (with tick), nested-send deliveries, the final
// stats, and RNG position.
func runScript(s batchScript, seed uint64, batched bool) string {
	eng := sim.NewEngine()
	b := NewBus()
	faults := rng.New(seed)
	if s.lossProb > 0 {
		b.SetLoss(s.lossProb)
		b.SetFaultRand(faults)
	}
	if s.delay > 0 {
		b.SetDelay(eng, s.delay)
	}
	from := id.FromUint64(1000)
	echo := id.FromUint64(2000)
	var trace string
	b.Register(echo, func(m Message) {
		trace += fmt.Sprintf("echo@%d:%v;", eng.Now(), m.Payload)
	})
	dests := make([]id.ID, s.dests)
	for i := range dests {
		i := i
		dests[i] = id.FromUint64(uint64(10 + i))
		if s.unrouted[i] {
			continue
		}
		b.Register(dests[i], func(m Message) {
			trace += fmt.Sprintf("d%d@%d:%v;", i, eng.Now(), m.Payload)
			// Nested synchronous send: must land between this delivery
			// and the next destination's on both paths.
			b.Send(Message{From: dests[i], To: echo, Kind: "echo", Payload: i})
			for mc := range s.midCrash {
				b.Crash(dests[mc])
			}
		})
		if s.crashed[i] {
			b.Crash(dests[i])
		}
	}
	call := eng.Handle("call", func(fn any) { fn.(func())() })
	eng.Schedule(0, call, func() {
		if batched {
			b.SendBatch(from, "credit", "pay", dests)
		} else {
			for _, dst := range dests {
				b.Send(Message{From: from, To: dst, Kind: "credit", Payload: "pay"})
			}
		}
		if s.extraAfter {
			// A competing event scheduled right after the fan-out, at
			// the delivery tick: it must run after every delivery on
			// both paths.
			at := eng.Now() + s.delay
			eng.Schedule(at, call, func() {
				trace += fmt.Sprintf("comp@%d;", eng.Now())
			})
		}
	})
	eng.RunUntil(100)
	st := b.Stats()
	return fmt.Sprintf("%s|sent=%d delivered=%d dropped=%d crashed=%d noroute=%d|rng=%d",
		trace, st.Sent, st.Delivered, st.Dropped, st.Crashed, st.NoRoute, faults.Uint64())
}

// TestSendBatchEquivalence is the batched-bus equivalence property
// test: across randomized fan-out sizes, crash/unroute/mid-delivery
// crash mixes, loss probabilities and delivery delays, the batched
// path must produce byte-identical observation traces — handler order,
// nested-send interleaving, stats, and RNG consumption — to the
// per-message path.
func TestSendBatchEquivalence(t *testing.T) {
	r := rng.New(7)
	for i := 0; i < 500; i++ {
		s := randomBatchScript(r)
		seed := r.Uint64()
		per := runScript(s, seed, false)
		bat := runScript(s, seed, true)
		if per != bat {
			t.Fatalf("case %d (%+v) diverged:\n per-message: %s\n     batched: %s", i, s, per, bat)
		}
	}
}

func TestSendBatchEmpty(t *testing.T) {
	b := NewBus()
	b.SendBatch(id.FromUint64(1), "credit", nil, nil)
	if st := b.Stats(); st != (Stats{}) {
		t.Fatalf("empty batch touched stats: %+v", st)
	}
}
