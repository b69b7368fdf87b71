package peer

import (
	"math"
	"testing"

	"repro/internal/id"
	"repro/internal/rng"
	"repro/internal/rocq"
)

func newPeer(class Class, style Style) *Peer {
	return &Peer{ID: id.FromUint64(1), Class: class, Style: style, Opinions: rocq.NewOpinionBook(rocq.DefaultParams())}
}

func TestClassAndStyleStrings(t *testing.T) {
	if Cooperative.String() != "cooperative" || Uncooperative.String() != "uncooperative" {
		t.Fatal("class strings wrong")
	}
	if Naive.String() != "naive" || Selective.String() != "selective" {
		t.Fatal("style strings wrong")
	}
	if Class(9).String() == "" || Style(9).String() == "" {
		t.Fatal("unknown values must render something")
	}
}

func TestWillServeTracksReputation(t *testing.T) {
	p := newPeer(Cooperative, Naive)
	src := rng.New(1)
	for _, rep := range []float64{0, 0.25, 0.9, 1} {
		served := 0
		const n = 50000
		for i := 0; i < n; i++ {
			if p.WillServe(rep, src) {
				served++
			}
		}
		frac := float64(served) / n
		if math.Abs(frac-rep) > 0.01 {
			t.Fatalf("serve rate %v for reputation %v", frac, rep)
		}
	}
}

func TestBehavesWell(t *testing.T) {
	if !newPeer(Cooperative, Naive).BehavesWellAt(0) {
		t.Fatal("cooperative peer must behave well")
	}
	if newPeer(Uncooperative, Naive).BehavesWellAt(0) {
		t.Fatal("uncooperative peer must not behave well")
	}
	traitor := newPeer(Cooperative, Naive)
	traitor.DefectAt = 100
	if !traitor.BehavesWellAt(99) || traitor.BehavesWellAt(100) {
		t.Fatal("a traitor must behave well until its defection tick and not from it on")
	}
}

func TestRateHonestVsLiar(t *testing.T) {
	coop := newPeer(Cooperative, Naive)
	uncoop := newPeer(Uncooperative, Naive)
	if coop.Rate(true) != 1 || coop.Rate(false) != 0 {
		t.Fatal("cooperative rating must be honest")
	}
	// "An uncooperative peer would always send a value of 0."
	if uncoop.Rate(true) != 0 || uncoop.Rate(false) != 0 {
		t.Fatal("uncooperative peer must always rate 0")
	}
}

func TestNaiveIntroducesEveryone(t *testing.T) {
	p := newPeer(Cooperative, Naive)
	src := rng.New(2)
	for i := 0; i < 100; i++ {
		if !p.WillIntroduce(Uncooperative, 0.1, src) || !p.WillIntroduce(Cooperative, 0.1, src) {
			t.Fatal("naive introducer refused someone")
		}
	}
}

func TestSelectiveAlwaysIntroducesCooperative(t *testing.T) {
	p := newPeer(Cooperative, Selective)
	src := rng.New(3)
	for i := 0; i < 100; i++ {
		if !p.WillIntroduce(Cooperative, 0.1, src) {
			t.Fatal("selective introducer refused a cooperative newcomer")
		}
	}
}

func TestSelectiveErrsAtRateErrSel(t *testing.T) {
	p := newPeer(Cooperative, Selective)
	src := rng.New(4)
	granted := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if p.WillIntroduce(Uncooperative, 0.1, src) {
			granted++
		}
	}
	frac := float64(granted) / n
	if math.Abs(frac-0.1) > 0.01 {
		t.Fatalf("selective error rate %v, want ~0.1", frac)
	}
}

func TestSelectiveZeroErrorNeverIntroducesUncoop(t *testing.T) {
	p := newPeer(Cooperative, Selective)
	src := rng.New(5)
	for i := 0; i < 1000; i++ {
		if p.WillIntroduce(Uncooperative, 0, src) {
			t.Fatal("errSel=0 still introduced an uncooperative newcomer")
		}
	}
}

func TestAssignArrivalClassProportion(t *testing.T) {
	src := rng.New(6)
	uncoop := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if AssignArrivalClass(0.25, src) == Uncooperative {
			uncoop++
		}
	}
	frac := float64(uncoop) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("uncooperative arrival fraction %v, want ~0.25", frac)
	}
}

func TestAssignStyleUncoopAlwaysNaive(t *testing.T) {
	src := rng.New(7)
	for i := 0; i < 1000; i++ {
		if AssignStyle(Uncooperative, 0.0, src) != Naive {
			t.Fatal("uncooperative peer assigned selective style")
		}
	}
}

func TestAssignStyleCoopFraction(t *testing.T) {
	src := rng.New(8)
	naive := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if AssignStyle(Cooperative, 0.3, src) == Naive {
			naive++
		}
	}
	frac := float64(naive) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("naive fraction %v, want ~0.3", frac)
	}
}
