package scenario

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/id"
	"repro/internal/lending"
	"repro/internal/peer"
	"repro/internal/sim"
	"repro/internal/world"
)

// digest captures everything a run produced that the golden comparison
// pins: the full metrics struct (counters and time series), the protocol
// counters, the identities and final reputations of the scripted actors,
// and the final clock.
type digest struct {
	Metrics world.Metrics
	Proto   lending.Stats
	Peers   map[string]id.ID
	Reps    map[string]float64
	Members int
	End     int64
}

func worldDigest(w *world.World, actors map[string]id.ID) digest {
	d := digest{
		Metrics: *w.Metrics(),
		Proto:   w.Protocol().Stats(),
		Peers:   actors,
		Reps:    make(map[string]float64, len(actors)),
		Members: w.PopulationSize(),
		End:     int64(w.Engine().Now()),
	}
	for name, pid := range actors {
		d.Reps[name] = w.Reputation(pid)
	}
	return d
}

func resultDigest(t *testing.T, res *Result) digest {
	t.Helper()
	actors := make(map[string]id.ID)
	for _, o := range res.Outcomes {
		if o.Label != "" {
			actors[o.Label] = o.Peer
		}
	}
	return digest{
		Metrics: res.Metrics,
		Proto:   res.Proto,
		Peers:   actors,
		Reps:    res.FinalReputation,
		Members: res.Members,
		End:     res.Spec.Base.NumTrans,
	}
}

func compareDigests(t *testing.T, want, got digest) {
	t.Helper()
	if !reflect.DeepEqual(want.Peers, got.Peers) {
		t.Errorf("actor identities diverged:\n want %v\n got  %v", want.Peers, got.Peers)
	}
	if !reflect.DeepEqual(want.Reps, got.Reps) {
		t.Errorf("actor reputations diverged:\n want %v\n got  %v", want.Reps, got.Reps)
	}
	if want.Proto != got.Proto {
		t.Errorf("protocol stats diverged:\n want %+v\n got  %+v", want.Proto, got.Proto)
	}
	if want.Members != got.Members || want.End != got.End {
		t.Errorf("members/end diverged: want %d@%d, got %d@%d", want.Members, want.End, got.Members, got.End)
	}
	if !reflect.DeepEqual(want.Metrics, got.Metrics) {
		t.Errorf("metrics diverged:\n want %+v\n got  %+v", want.Metrics, got.Metrics)
	}
}

// runBuiltin executes a registered scenario and digests it.
func runBuiltin(t *testing.T, name string) digest {
	t.Helper()
	spec, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	return resultDigest(t, res)
}

func firstWithStyle(t *testing.T, w *world.World, style peer.Style) id.ID {
	t.Helper()
	for _, pid := range w.AdmittedPeers() {
		if p, ok := w.Peer(pid); ok && p.Style == style {
			return pid
		}
	}
	t.Fatalf("no member with style %v", style)
	return id.ID{}
}

func mustInject(t *testing.T, w *world.World, class peer.Class, style peer.Style, intro id.ID) id.ID {
	t.Helper()
	pid, err := w.InjectArrival(class, style, intro)
	if err != nil {
		t.Fatal(err)
	}
	return pid
}

// TestGoldenQuickstart pins the "quickstart" scenario to the run the
// hard-coded examples/quickstart program produced before the refactor.
func TestGoldenQuickstart(t *testing.T) {
	cfg := config.Default()
	cfg.NumInit = 50
	cfg.NumTrans = 30_000 // the pre-refactor upper bound; the clock is driven below
	cfg.Lambda = 0
	cfg.WaitPeriod = 200
	cfg.AuditTrans = 10
	cfg.Seed = 42
	w, err := world.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	if err := w.RunFor(2_000); err != nil {
		t.Fatal(err)
	}
	selective := firstWithStyle(t, w, peer.Selective)
	naive := firstWithStyle(t, w, peer.Naive)
	honest := mustInject(t, w, peer.Cooperative, peer.Selective, selective)
	if err := w.RunFor(201); err != nil {
		t.Fatal(err)
	}
	refused := mustInject(t, w, peer.Uncooperative, peer.Naive, selective)
	if err := w.RunFor(201); err != nil {
		t.Fatal(err)
	}
	freerider := mustInject(t, w, peer.Uncooperative, peer.Naive, naive)
	if err := w.RunFor(201); err != nil {
		t.Fatal(err)
	}
	if err := w.RunFor(20_000); err != nil {
		t.Fatal(err)
	}
	w.Finish()
	want := worldDigest(w, map[string]id.ID{"honest": honest, "refused": refused, "freerider": freerider})
	want.End = 22_603 // the spec states the real run length instead of an upper bound

	compareDigests(t, want, runBuiltin(t, "quickstart"))
}

// TestGoldenChurn pins "churn": score-manager crash mid-introduction.
func TestGoldenChurn(t *testing.T) {
	cfg := config.Default()
	cfg.NumInit = 100
	cfg.NumTrans = 100_000
	cfg.Lambda = 0.02
	cfg.WaitPeriod = 200
	cfg.Seed = 5
	w, err := world.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	if err := w.RunFor(50_000); err != nil {
		t.Fatal(err)
	}
	introducer := w.AdmittedPeers()[0]
	for _, pid := range w.AdmittedPeers() {
		if p, ok := w.Peer(pid); ok && p.Style == peer.Naive && w.Reputation(pid) > 0.6 {
			introducer = pid
			break
		}
	}
	// A copy: the injection and the run below join nodes, and a join
	// repairs the cached set in place.
	sms := slices.Clone(w.ScoreManagers(introducer))
	for _, sm := range sms[:len(sms)/2] {
		w.Bus().Crash(sm)
	}
	newcomer := mustInject(t, w, peer.Cooperative, peer.Selective, introducer)
	if err := w.RunFor(201); err != nil {
		t.Fatal(err)
	}
	for _, sm := range sms[:len(sms)/2] {
		w.Bus().Recover(sm)
	}
	w.Finish()
	want := worldDigest(w, map[string]id.ID{"newcomer": newcomer})
	want.End = 50_201

	compareDigests(t, want, runBuiltin(t, "churn"))
}

// TestGoldenCollusion pins "collusion": the mole's introduction spree.
func TestGoldenCollusion(t *testing.T) {
	cfg := config.Default()
	cfg.NumInit = 150
	cfg.NumTrans = 200_000
	cfg.Lambda = 0
	cfg.WaitPeriod = 500
	cfg.AuditTrans = 10
	cfg.Seed = 99
	w, err := world.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	entry := w.AdmittedPeers()[0]
	for _, pid := range w.AdmittedPeers() {
		if p, ok := w.Peer(pid); ok && p.Style == peer.Naive {
			entry = pid
			break
		}
	}
	mole := mustInject(t, w, peer.Cooperative, peer.Naive, entry)
	if err := w.RunFor(30_000); err != nil {
		t.Fatal(err)
	}
	actors := map[string]id.ID{"mole": mole}
	for wave := 1; wave <= 12; wave++ {
		colluder := mustInject(t, w, peer.Uncooperative, peer.Naive, mole)
		if err := w.RunFor(501); err != nil {
			t.Fatal(err)
		}
		actors[fmt.Sprintf("colluder-%d", wave)] = colluder
	}
	if err := w.RunFor(40_000); err != nil {
		t.Fatal(err)
	}
	w.Finish()
	want := worldDigest(w, actors)
	want.End = 76_012

	compareDigests(t, want, runBuiltin(t, "collusion"))
}

// TestGoldenFilesharing pins "filesharing": the plain growth workload.
func TestGoldenFilesharing(t *testing.T) {
	cfg := config.Default()
	cfg.NumInit = 200
	cfg.NumTrans = 60_000
	cfg.Lambda = 0.05
	cfg.FracUncoop = 0.25
	cfg.WaitPeriod = 500
	cfg.Seed = 2026
	w, err := world.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	for i := 0; i < 6; i++ { // the pre-refactor program stepped 6×10000
		if err := w.RunFor(10_000); err != nil {
			t.Fatal(err)
		}
	}
	w.Finish()
	want := worldDigest(w, map[string]id.ID{})
	compareDigests(t, want, runBuiltin(t, "filesharing"))
}

// TestGoldenAPI pins "api": the introduction chain the embedding-API
// example scripted (founder → B → C), replicated on the world directly
// with the calls the pre-refactor program made: an unbounded clock the
// test drives, background arrivals at λ = 0.02, and cooperative,
// selective newcomers injected through a chosen introducer.
func TestGoldenAPI(t *testing.T) {
	cfg := config.Default()
	cfg.NumTrans = 1 << 40 // effectively unbounded; the test drives the clock
	cfg.NumInit = 80
	cfg.Seed = 7
	cfg.Lambda = 0.02
	cfg.FracUncoop = 0.25
	w, err := world.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	advance := func(n int64) {
		t.Helper()
		if err := w.RunFor(sim.Tick(n)); err != nil {
			t.Fatal(err)
		}
	}
	introduce := func(introducer id.ID) id.ID {
		t.Helper()
		p, err := w.InjectArrival(peer.Cooperative, peer.Selective, introducer)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	advance(5_000)
	b := introduce(w.AdmittedPeers()[0])
	advance(cfg.WaitPeriod + 1)
	advance(30_000)
	c := introduce(b)
	advance(cfg.WaitPeriod + 1)
	advance(20_000)
	w.Finish()
	want := worldDigest(w, map[string]id.ID{"b": b, "c": c})
	want.End = 57_002

	compareDigests(t, want, runBuiltin(t, "api"))
}

// TestGoldenScenarioFileRoundTrip proves the file path end to end: every
// built-in dumps to JSON and loads back identically, and a run driven
// from the serialized file reproduces the registry-built run exactly.
func TestGoldenScenarioFileRoundTrip(t *testing.T) {
	for _, name := range Names() {
		spec, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := spec.JSON()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		loaded, err := Load(data)
		if err != nil {
			t.Fatalf("%s: reloading dump: %v", name, err)
		}
		if !reflect.DeepEqual(spec, loaded) {
			t.Errorf("%s: spec did not survive the JSON round trip:\n want %+v\n got  %+v", name, spec, loaded)
		}
	}

	// One full execution from the serialized form (the cheapest built-in
	// with scripted actors).
	spec, err := Get("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	data, err := spec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := loaded.Run()
	if err != nil {
		t.Fatal(err)
	}
	fromRegistry, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	compareDigests(t, resultDigest(t, fromRegistry), resultDigest(t, fromFile))
}
