package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestSeriesAppendAndLast(t *testing.T) {
	s := &Series{Name: "rep"}
	if _, ok := s.Last(); ok {
		t.Fatal("empty series should have no Last")
	}
	s.Append(0, 1.0)
	s.Append(5, 2.0)
	s.Append(5, 3.0) // same tick allowed
	p, ok := s.Last()
	if !ok || p.T != 5 || p.V != 3.0 {
		t.Fatalf("Last = %+v, %v", p, ok)
	}
}

func TestSeriesOutOfOrderPanics(t *testing.T) {
	s := &Series{Name: "x"}
	s.Append(10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Append(9, 2)
}

func TestSeriesAt(t *testing.T) {
	s := &Series{Name: "x"}
	s.Append(10, 1)
	s.Append(20, 2)
	if _, ok := s.At(5); ok {
		t.Fatal("At before first sample should be absent")
	}
	if v, ok := s.At(10); !ok || v != 1 {
		t.Fatalf("At(10) = %v, %v", v, ok)
	}
	if v, ok := s.At(15); !ok || v != 1 {
		t.Fatalf("At(15) = %v, %v", v, ok)
	}
	if v, ok := s.At(25); !ok || v != 2 {
		t.Fatalf("At(25) = %v, %v", v, ok)
	}
}

func TestSeriesValues(t *testing.T) {
	s := &Series{Name: "x"}
	s.Append(1, 10)
	s.Append(2, 20)
	vs := s.Values()
	if len(vs) != 2 || vs[0] != 10 || vs[1] != 20 {
		t.Fatalf("Values = %v", vs)
	}
}

func TestRunningMoments(t *testing.T) {
	var r Running
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Observe(v)
	}
	if r.n != 8 {
		t.Fatalf("n = %d", r.n)
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", r.Mean())
	}
	// Population variance of this classic set is 4; unbiased is 32/7.
	if math.Abs(r.Variance()-32.0/7) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", r.Variance(), 32.0/7)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", r.Min(), r.Max())
	}
}

func TestRunningCI95ShrinksWithSamples(t *testing.T) {
	var small, large Running
	for i := 0; i < 10; i++ {
		small.Observe(float64(i % 3))
	}
	for i := 0; i < 1000; i++ {
		large.Observe(float64(i % 3))
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI95 did not shrink: %v vs %v", large.CI95(), small.CI95())
	}
}

func TestMergeSeriesAverages(t *testing.T) {
	a := &Series{Name: "a"}
	b := &Series{Name: "b"}
	for _, p := range []Point{{0, 1}, {10, 3}} {
		a.Append(p.T, p.V)
	}
	for _, p := range []Point{{0, 3}, {10, 5}} {
		b.Append(p.T, p.V)
	}
	m, err := MergeSeriesChecked("avg", []*Series{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Points) != 2 || m.Points[0].V != 2 || m.Points[1].V != 4 {
		t.Fatalf("merged = %+v", m.Points)
	}
	if m.Points[0].T != 0 || m.Points[1].T != 10 {
		t.Fatalf("merged times wrong: %+v", m.Points)
	}
}

func TestMergeSeriesEmptyInput(t *testing.T) {
	m, err := MergeSeriesChecked("avg", nil)
	if err != nil || m.Name != "avg" || len(m.Points) != 0 {
		t.Fatalf("merged = %+v, %v", m, err)
	}
}

func TestCSV(t *testing.T) {
	a := &Series{Name: "coop"}
	b := &Series{Name: "uncoop"}
	a.Append(0, 500)
	a.Append(1000, 520.5)
	b.Append(0, 0)
	b.Append(1000, 3)
	got := CSV(a, b)
	want := "t,coop,uncoop\n0,500,0\n1000,520.5,3\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestCSVHeaderOnly(t *testing.T) {
	s := &Series{Name: "x"}
	got := CSV(s)
	if !strings.HasPrefix(got, "t,x\n") || strings.Count(got, "\n") != 1 {
		t.Fatalf("CSV = %q", got)
	}
}
