// Package asciiplot renders time series as plain-text line charts, so the
// experiment harness can show the paper's figures directly in a terminal
// next to the numeric tables.
package asciiplot

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/metrics"
)

// Options controls chart geometry.
type Options struct {
	// Width and Height are the plot area in characters (default 72×16).
	Width, Height int
	// Title is printed above the chart.
	Title string
	// YLabel annotates the vertical axis.
	YLabel string
	// XLabel annotates the horizontal axis.
	XLabel string
}

func (o Options) withDefaults() Options {
	if o.Width <= 0 {
		o.Width = 72
	}
	if o.Width < 16 {
		o.Width = 16
	}
	if o.Height <= 0 {
		o.Height = 16
	}
	if o.Height < 4 {
		o.Height = 4
	}
	return o
}

// seriesGlyphs mark successive series on a shared chart.
var seriesGlyphs = []byte{'*', '+', 'o', 'x', '#', '@', '%', '~'}

// Render draws one or more series on a shared time axis. Series may have
// different sample times; each is interpolated onto the plot columns.
// An empty input or all-empty series renders a placeholder message.
func Render(opt Options, series ...*metrics.Series) string {
	opt = opt.withDefaults()
	var nonEmpty []*metrics.Series
	for _, s := range series {
		if s != nil && len(s.Points) > 0 {
			nonEmpty = append(nonEmpty, s)
		}
	}
	if len(nonEmpty) == 0 {
		return opt.Title + "\n(no data)\n"
	}

	// Global ranges.
	minT, maxT := nonEmpty[0].Points[0].T, nonEmpty[0].Points[0].T
	minV, maxV := math.Inf(1), math.Inf(-1)
	for _, s := range nonEmpty {
		for _, p := range s.Points {
			if p.T < minT {
				minT = p.T
			}
			if p.T > maxT {
				maxT = p.T
			}
			if p.V < minV {
				minV = p.V
			}
			if p.V > maxV {
				maxV = p.V
			}
		}
	}
	if maxV == minV {
		maxV = minV + 1 // flat line: give it a band to live in
	}
	if maxT == minT {
		maxT = minT + 1
	}

	grid := make([][]byte, opt.Height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", opt.Width))
	}
	for si, s := range nonEmpty {
		glyph := seriesGlyphs[si%len(seriesGlyphs)]
		for col := 0; col < opt.Width; col++ {
			t := minT + int64(float64(col)/float64(opt.Width-1)*float64(maxT-minT))
			v, ok := s.At(t)
			if !ok {
				continue
			}
			row := int((maxV - v) / (maxV - minV) * float64(opt.Height-1))
			if row < 0 {
				row = 0
			}
			if row >= opt.Height {
				row = opt.Height - 1
			}
			grid[row][col] = glyph
		}
	}

	var b strings.Builder
	if opt.Title != "" {
		b.WriteString(opt.Title)
		b.WriteString("\n")
	}
	yTop := fmt.Sprintf("%.4g", maxV)
	yBot := fmt.Sprintf("%.4g", minV)
	labelW := len(yTop)
	if len(yBot) > labelW {
		labelW = len(yBot)
	}
	for i, row := range grid {
		switch i {
		case 0:
			fmt.Fprintf(&b, "%*s |", labelW, yTop)
		case opt.Height - 1:
			fmt.Fprintf(&b, "%*s |", labelW, yBot)
		default:
			fmt.Fprintf(&b, "%*s |", labelW, "")
		}
		b.Write(row)
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%*s +%s\n", labelW, "", strings.Repeat("-", opt.Width))
	xLeft := fmt.Sprintf("%d", minT)
	xRight := fmt.Sprintf("%d", maxT)
	pad := opt.Width - len(xLeft) - len(xRight)
	if pad < 1 {
		pad = 1
	}
	fmt.Fprintf(&b, "%*s %s%s%s\n", labelW, "", xLeft, strings.Repeat(" ", pad), xRight)
	if opt.XLabel != "" || opt.YLabel != "" {
		fmt.Fprintf(&b, "%*s x: %s   y: %s\n", labelW, "", opt.XLabel, opt.YLabel)
	}
	// Legend.
	if len(nonEmpty) > 1 {
		fmt.Fprintf(&b, "%*s ", labelW, "")
		for si, s := range nonEmpty {
			if si > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%c=%s", seriesGlyphs[si%len(seriesGlyphs)], s.Name)
		}
		b.WriteString("\n")
	}
	return b.String()
}
