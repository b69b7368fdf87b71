package world

import (
	"testing"

	"repro/internal/config"
)

func deltaTestConfig() config.Config {
	cfg := config.Default()
	cfg.NumInit = 40
	cfg.NumTrans = 10_000
	cfg.Lambda = 0
	cfg.WaitPeriod = 100
	cfg.Seed = 11
	return cfg
}

func TestApplyDeltaRejectsInvalidAndLeavesWorldUntouched(t *testing.T) {
	w, err := New(deltaTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := -1.0
	if err := w.ApplyDelta(Delta{FracUncoop: &bad}); err == nil {
		t.Fatal("negative FracUncoop accepted")
	}
	if got := w.Config().FracUncoop; got != deltaTestConfig().FracUncoop {
		t.Fatalf("config mutated by rejected delta: FracUncoop=%v", got)
	}
	// Inconsistent pair: IntroAmt raised above MinIntroRep.
	amt := 0.9
	if err := w.ApplyDelta(Delta{IntroAmt: &amt}); err == nil {
		t.Fatal("IntroAmt above MinIntroRep accepted")
	}
}

func TestApplyDeltaLambdaStartsAndStopsArrivals(t *testing.T) {
	w, err := New(deltaTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunFor(2_000); err != nil {
		t.Fatal(err)
	}
	if got := w.Metrics().ArrivalsCoop + w.Metrics().ArrivalsUncoop; got != 0 {
		t.Fatalf("arrivals with λ=0: %d", got)
	}

	// λ spike: arrivals must start flowing.
	hot := 0.1
	if err := w.ApplyDelta(Delta{Lambda: &hot}); err != nil {
		t.Fatal(err)
	}
	if err := w.RunFor(2_000); err != nil {
		t.Fatal(err)
	}
	during := w.Metrics().ArrivalsCoop + w.Metrics().ArrivalsUncoop
	if during == 0 {
		t.Fatal("no arrivals after λ spike")
	}

	// Back to 0: the in-flight chain must be cancelled, not fire once more
	// per stale schedule.
	off := 0.0
	if err := w.ApplyDelta(Delta{Lambda: &off}); err != nil {
		t.Fatal(err)
	}
	if err := w.RunFor(4_000); err != nil {
		t.Fatal(err)
	}
	after := w.Metrics().ArrivalsCoop + w.Metrics().ArrivalsUncoop
	if after != during {
		t.Fatalf("arrivals continued after λ=0: %d -> %d", during, after)
	}
}

func TestApplyDeltaLambdaSpikeTakesEffectImmediately(t *testing.T) {
	// Raising λ from a positive trickle must not wait out a residual gap
	// drawn under the old rate: the Poisson clock restarts from now.
	cfg := deltaTestConfig()
	cfg.Lambda = 0.001 // mean gap 1000 ticks
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunFor(2_000); err != nil {
		t.Fatal(err)
	}
	before := w.Metrics().ArrivalsCoop + w.Metrics().ArrivalsUncoop
	hot := 0.5
	if err := w.ApplyDelta(Delta{Lambda: &hot}); err != nil {
		t.Fatal(err)
	}
	if err := w.RunFor(200); err != nil { // ≈100 expected arrivals at the new rate
		t.Fatal(err)
	}
	got := w.Metrics().ArrivalsCoop + w.Metrics().ArrivalsUncoop - before
	if got < 50 {
		t.Fatalf("λ spike delayed by stale arrival clock: only %d arrivals in 200 ticks", got)
	}
}

func TestApplyDeltaReachesLendingProtocol(t *testing.T) {
	w, err := New(deltaTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	amt, reward, floor := 0.2, 0.04, 0.4
	if err := w.ApplyDelta(Delta{IntroAmt: &amt, Reward: &reward, MinIntroRep: &floor}); err != nil {
		t.Fatal(err)
	}
	p := w.Protocol().Params()
	if p.IntroAmt != amt || p.Reward != reward || p.MinIntroRep != floor {
		t.Fatalf("protocol params not updated: %+v", p)
	}
}

func TestArrivalClampKeepsPoissonRate(t *testing.T) {
	// The tick grid caps arrivals at one per tick. Before the fix, a rate
	// above the cap left the continuous clock permanently behind the
	// engine: every draw clamped to now+1 and the process degraded to
	// exactly one arrival per tick regardless of λ, forever. Re-anchoring
	// the clock on clamp keeps proper Exp-spaced gaps. λ=1.2 sits just
	// above the cap, where the distortion is widest: correct clamping
	// leaves Exp-length gaps (observed ≈3430 arrivals in 4000 ticks),
	// while the lagging clock of the old bug locks to ≈4000.
	cfg := deltaTestConfig()
	cfg.Lambda = 1.2
	cfg.NumTrans = 4_000
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunFor(4_000); err != nil {
		t.Fatal(err)
	}
	got := w.Metrics().ArrivalsCoop + w.Metrics().ArrivalsUncoop
	if got >= 3_900 {
		t.Fatalf("arrival process locked to one per tick (%d arrivals in 4000 ticks): clamp did not re-anchor the Poisson clock", got)
	}
	if got < 3_000 {
		t.Fatalf("arrival process lost its rate after clamping: %d arrivals in 4000 ticks at λ=1.2", got)
	}
}

func TestDeltaDeterminismUnchangedWithoutDeltas(t *testing.T) {
	// The generation-aware arrival chain must not perturb runs that never
	// apply a delta: two identical configs give identical metrics.
	cfg := deltaTestConfig()
	cfg.Lambda = 0.05
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	if am, bm := a.Metrics(), b.Metrics(); am.ArrivalsCoop != bm.ArrivalsCoop ||
		am.Served != bm.Served || am.CorrectDecisions != bm.CorrectDecisions {
		t.Fatalf("identical runs diverged: %+v vs %+v", am, bm)
	}
}
