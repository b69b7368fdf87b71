package asciiplot

import (
	"strings"
	"testing"

	"repro/internal/metrics"
)

func ramp(name string, n int, slope float64) *metrics.Series {
	s := &metrics.Series{Name: name}
	for i := 0; i < n; i++ {
		s.Append(int64(i*100), slope*float64(i))
	}
	return s
}

func TestRenderBasicGeometry(t *testing.T) {
	out := Render(Options{Width: 40, Height: 8, Title: "T"}, ramp("up", 50, 1))
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + 8 rows + axis + x labels = 11
	if len(lines) != 11 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "T" {
		t.Fatalf("title missing: %q", lines[0])
	}
	if !strings.Contains(out, "*") {
		t.Fatal("no glyphs plotted")
	}
}

func TestRenderMonotoneSeriesFillsCorners(t *testing.T) {
	out := Render(Options{Width: 30, Height: 6}, ramp("up", 30, 2))
	lines := strings.Split(out, "\n")
	top := lines[0]
	bottom := lines[5]
	// Rising series: glyph near the right of the top row, near the left
	// of the bottom row.
	if !strings.Contains(top, "*") || !strings.Contains(bottom, "*") {
		t.Fatalf("extremes not plotted:\n%s", out)
	}
	if strings.Index(top, "*") < strings.Index(bottom, "*") {
		t.Fatalf("rising series plotted falling:\n%s", out)
	}
}

func TestRenderEmpty(t *testing.T) {
	out := Render(Options{Title: "E"})
	if !strings.Contains(out, "no data") {
		t.Fatalf("empty render = %q", out)
	}
	empty := &metrics.Series{Name: "x"}
	if out := Render(Options{}, empty); !strings.Contains(out, "no data") {
		t.Fatalf("all-empty render = %q", out)
	}
}

func TestRenderFlatSeries(t *testing.T) {
	s := &metrics.Series{Name: "flat"}
	for i := 0; i < 10; i++ {
		s.Append(int64(i), 5)
	}
	out := Render(Options{Width: 20, Height: 5}, s)
	if !strings.Contains(out, "*") {
		t.Fatalf("flat series vanished:\n%s", out)
	}
}

func TestRenderLegendForMultipleSeries(t *testing.T) {
	out := Render(Options{Width: 30, Height: 5},
		ramp("alpha", 20, 1), ramp("beta", 20, 2))
	if !strings.Contains(out, "*=alpha") || !strings.Contains(out, "+=beta") {
		t.Fatalf("legend missing:\n%s", out)
	}
}

func TestRenderAxisLabels(t *testing.T) {
	out := Render(Options{Width: 30, Height: 5, XLabel: "ticks", YLabel: "rep"}, ramp("a", 10, 1))
	if !strings.Contains(out, "x: ticks") || !strings.Contains(out, "y: rep") {
		t.Fatalf("axis labels missing:\n%s", out)
	}
}

func TestRenderTinyDimensionsClamped(t *testing.T) {
	out := Render(Options{Width: 1, Height: 1}, ramp("a", 5, 1))
	if out == "" {
		t.Fatal("empty render")
	}
}
