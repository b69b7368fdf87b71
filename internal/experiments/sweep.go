package experiments

import (
	"cmp"
	"fmt"
	"strings"

	"repro/internal/asciiplot"
	"repro/internal/baseline"
	"repro/internal/config"
	"repro/internal/metrics"
)

// Sweep is a replica experiment declared as data. Its points say what to
// run: each a scaled config, an optional baseline policy and the index of
// the point's sweep seed. Its columns say what to report: each a
// reduction of one point's replicas to a number. run executes every point
// on the shared replica runner and fills in the values; one Table, CSV and
// Plot render every sweep.
type Sweep struct {
	Columns []Column
	Points  []Point

	name   string
	keyCSV string              // CSV header of the key column
	tables []table             // rendered in order, a blank line apart
	series []seriesOf          // averaged per point, for sweeps over time
	csv    func(*Sweep) string // replaces the one-row-per-point CSV
	plot   func(*Sweep) string // replaces the tables' charts
}

// Point is one row of a sweep.
type Point struct {
	// Key labels the row: a number (float64, int or int64) or a name.
	Key any
	// Values holds one reduction per column, filled in by run.
	Values []float64

	csvKey string // the CSV label, when it differs from Key
	cfg    config.Config
	policy baseline.Policy // nil: lending admissions
	seed   int             // the point's sweep-seed index
	series []*metrics.Series
}

// Column is one reported quantity.
type Column struct {
	Header string // text-table header
	CSV    string // CSV column name
	of     func(p *Point, rs []Replica) float64
	line   string // legend of the column's line in its table's chart; "" leaves it out
}

// table renders some of a sweep's columns for a run of its points.
type table struct {
	title, key, note string
	cols             []int // indexes into Sweep.Columns; nil shows them all
	from, to         int   // the points shown; to == 0 shows through the last
	chart            *chart
}

// chart plots a table's lined columns against the point key times x.
type chart struct {
	title, xLabel, yLabel string
	x                     float64
}

// seriesOf names a per-replica series averaged pointwise at every point,
// as prefix + the point's key.
type seriesOf struct {
	prefix string
	of     func(Replica) *metrics.Series
}

// mean is a column averaging f over the replicas as a plain sum ÷ n.
func mean(header, csv string, f func(Replica) float64) Column {
	return Column{Header: header, CSV: csv, of: func(_ *Point, rs []Replica) float64 { return meanOf(rs, f) }}
}

// stat is a column averaging f over the replicas with the running
// (Welford) mean.
func stat(header, csv string, f func(Replica) float64) Column {
	return Column{Header: header, CSV: csv, of: func(_ *Point, rs []Replica) float64 {
		acc := statOf(rs, f)
		return acc.Mean()
	}}
}

// lined puts the column in its table's chart under the given legend.
func (c Column) lined(legend string) Column {
	c.line = legend
	return c
}

// axis declares one point per key, point i running cfg(key) at sweep
// seed i.
func axis[K any](keys []K, cfg func(K) config.Config) []Point {
	points := make([]Point, len(keys))
	for i, k := range keys {
		points[i] = Point{Key: k, cfg: cfg(k), seed: i}
	}
	return points
}

// run executes every point's replicas, averages its series and reduces
// its columns, returning s. opt must already have defaults applied.
func (s *Sweep) run(opt Options) (*Sweep, error) {
	for i := range s.Points {
		p := &s.Points[i]
		o := opt
		o.SeedBase = sweepSeed(opt.SeedBase, p.seed)
		rs, err := runReplicas(p.cfg, o, p.policy)
		if err != nil {
			return nil, err
		}
		for _, sr := range s.series {
			merged, err := mergeSeriesOf(rs, sr.prefix+fmt.Sprint(p.Key), sr.of)
			if err != nil {
				return nil, err
			}
			p.series = append(p.series, merged)
		}
		for _, c := range s.Columns {
			p.Values = append(p.Values, c.of(p, rs))
		}
	}
	return s, nil
}

// Name implements Report.
func (s *Sweep) Name() string { return s.name }

// shown returns the column indexes and the points a table renders.
func (s *Sweep) shown(t table) ([]int, []Point) {
	cols := t.cols
	if cols == nil {
		for i := range s.Columns {
			cols = append(cols, i)
		}
	}
	return cols, s.Points[t.from:cmp.Or(t.to, len(s.Points))]
}

// Table renders each table with its note beneath, a blank line apart.
func (s *Sweep) Table() string {
	out := make([]string, len(s.tables))
	for i, t := range s.tables {
		cols, points := s.shown(t)
		tt := &TextTable{Title: t.title, Header: []string{t.key}}
		for _, c := range cols {
			tt.Header = append(tt.Header, s.Columns[c].Header)
		}
		for _, p := range points {
			row := []any{p.Key}
			for _, c := range cols {
				row = append(row, p.Values[c])
			}
			tt.AddRow(row...)
		}
		out[i] = tt.String()
		if t.note != "" {
			out[i] += "\n" + t.note
		}
	}
	return strings.Join(out, "\n")
}

// CSV renders one row per point: its key, then every column.
func (s *Sweep) CSV() string {
	if s.csv != nil {
		return s.csv(s)
	}
	var b strings.Builder
	b.WriteString(s.keyCSV)
	for _, c := range s.Columns {
		b.WriteString("," + c.CSV)
	}
	b.WriteString("\n")
	for _, p := range s.Points {
		b.WriteString(cmp.Or(p.csvKey, fmt.Sprint(p.Key)))
		for _, v := range p.Values {
			b.WriteString("," + fmtF(v))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Plot renders each table's chart, one line per lined column, a blank
// line apart; "" when no table has one.
func (s *Sweep) Plot() string {
	if s.plot != nil {
		return s.plot(s)
	}
	var charts []string
	for _, t := range s.tables {
		if t.chart == nil {
			continue
		}
		cols, points := s.shown(t)
		var lines []*metrics.Series
		for _, c := range cols {
			if s.Columns[c].line == "" {
				continue
			}
			line := &metrics.Series{Name: s.Columns[c].line}
			for _, p := range points {
				x, _ := p.Key.(float64)
				line.Append(int64(x*t.chart.x), p.Values[c])
			}
			lines = append(lines, line)
		}
		charts = append(charts, asciiplot.Render(asciiplot.Options{
			Title: t.chart.title, XLabel: t.chart.xLabel, YLabel: t.chart.yLabel,
		}, lines...))
	}
	return strings.Join(charts, "\n")
}
