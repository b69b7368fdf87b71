package world

// Telemetry determinism tests: attaching the full observability stack —
// streaming JSONL sink, event log, series sink, progress gauge and
// wall-clock spans — must change nothing about a run. The bus is
// write-only by construction (it draws no randomness and the world never
// reads it back); these tests pin that byte for byte, and pin that the
// sinks faithfully reproduce the world's own records.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// instrument attaches every built-in sink plus spans to a world and
// returns the pieces for later inspection.
type instruments struct {
	bus      *telemetry.Bus
	stream   *bytes.Buffer
	log      *trace.Log
	series   *metrics.SeriesSink
	progress *telemetry.Progress
	spans    *telemetry.Spans
}

func instrument(w *World) *instruments {
	ins := &instruments{
		stream:   &bytes.Buffer{},
		log:      trace.New(0),
		series:   metrics.NewSeriesSink(),
		progress: &telemetry.Progress{},
		spans:    telemetry.NewSpans(),
	}
	ins.bus = telemetry.NewBus()
	ins.bus.Attach(telemetry.NewStreamSink(ins.stream))
	ins.bus.Attach(ins.log)
	ins.bus.Attach(ins.series)
	ins.bus.Attach(ins.progress)
	w.SetTelemetry(ins.bus)
	w.SetSpans(ins.spans)
	return ins
}

// TestTelemetryIsWriteOnly runs the same churny configuration bare and
// fully instrumented and demands identical observable output: snapshot
// bytes, rendered CSV and protocol/transport stats. Any telemetry code
// path that consumed a random draw or mutated world state would split
// the fingerprints.
func TestTelemetryIsWriteOnly(t *testing.T) {
	cfg := churnyCfg(3)

	bare, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.Run(); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, bare)

	inst, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ins := instrument(inst)
	if err := inst.Run(); err != nil {
		t.Fatal(err)
	}
	if err := ins.bus.Flush(); err != nil {
		t.Fatal(err)
	}
	got := fingerprint(t, inst)

	if !bytes.Equal(want, got) {
		t.Fatalf("instrumented run diverged from bare run: %d vs %d fingerprint bytes", len(want), len(got))
	}

	// The series sink must reproduce the world's own sampled series
	// point for point.
	m := inst.Metrics()
	for _, pair := range []struct {
		name string
		want *metrics.Series
	}{
		{"coop", m.CoopCount},
		{"uncoop", m.UncoopCount},
		{"coop-reputation", m.CoopReputation},
	} {
		got := ins.series.Series(pair.name)
		if got == nil {
			t.Fatalf("series sink collected no %q series", pair.name)
		}
		if !reflect.DeepEqual(got, pair.want) {
			t.Fatalf("series %q: sink collected %d points, world holds %d (or values differ)",
				pair.name, len(got.Points), len(pair.want.Points))
		}
	}
	// The extra "population" gauge goes only to the bus, never into the
	// world's metrics.
	if ins.series.Series("population") == nil {
		t.Fatal("population gauge missing from series sink")
	}

	// The progress gauge tracked the run to its end.
	if ins.progress.Tick() != int64(cfg.NumTrans) {
		t.Fatalf("progress tick = %d, want %d", ins.progress.Tick(), cfg.NumTrans)
	}
	if ins.progress.Records() == 0 || ins.progress.Population() == 0 {
		t.Fatalf("progress records=%d population=%d", ins.progress.Records(), ins.progress.Population())
	}

	// The stream carried every published record as one JSON line each,
	// and its event lines decode to exactly the log's events, in order:
	// both are sinks on one bus.
	lines := bytes.Split(bytes.TrimRight(ins.stream.Bytes(), "\n"), []byte("\n"))
	if int64(len(lines)) != ins.progress.Records() {
		t.Fatalf("stream has %d lines, progress counted %d records", len(lines), ins.progress.Records())
	}
	var streamed []telemetry.Event
	for i, line := range lines {
		var rec struct {
			T string `json:"t"`
			telemetry.Event
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("stream line %d is not JSON: %v\n%s", i, err, line)
		}
		switch rec.T {
		case "event":
			streamed = append(streamed, rec.Event)
		case "sample":
		default:
			t.Fatalf("stream line %d has tag %q", i, rec.T)
		}
	}
	if ins.log.Len() == 0 {
		t.Fatal("no events reached the log")
	}
	if !reflect.DeepEqual(streamed, ins.log.Events()) {
		t.Fatalf("stream events diverged from the log (%d vs %d events)", len(streamed), ins.log.Len())
	}

	// Spans recorded wall-clock activity without feeding anything back
	// (the fingerprint equality above already proves the "without").
	stats := ins.spans.Stats()
	if len(stats) == 0 {
		t.Fatal("no spans recorded over a full churny run")
	}
	for _, want := range []string{"sampling", "overlay-join"} {
		found := false
		for _, s := range stats {
			if s.Name == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("span %q missing from %v", want, stats)
		}
	}
}

// TestHistogramsObserveLifecycles checks the three duration histograms
// against the run's counters: every introduction-based admission lands in
// AdmissionLatency exactly at the waiting period, every audit outcome
// lands in AuditWait, and every departure or crash lands in
// SessionLength.
func TestHistogramsObserveLifecycles(t *testing.T) {
	cfg := churnyCfg(2)
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	m := w.Metrics()

	admitted := m.AdmittedCoop + m.AdmittedUncoop
	if admitted == 0 {
		t.Fatal("run admitted nobody; config too small to exercise histograms")
	}
	h := m.AdmissionLatency
	if h.N != admitted {
		t.Fatalf("AdmissionLatency.N = %d, want %d admissions", h.N, admitted)
	}
	// The intro decision fires exactly WaitPeriod ticks after the
	// introduction request, so the histogram is a point mass there.
	if h.Min != int64(cfg.WaitPeriod) || h.Max != int64(cfg.WaitPeriod) {
		t.Fatalf("AdmissionLatency range [%d,%d], want point mass at %d", h.Min, h.Max, cfg.WaitPeriod)
	}

	audits := m.AuditsSatisfied + m.AuditsForfeited
	if got := m.AuditWait.N; got > audits || (audits > 0 && got == 0) {
		t.Fatalf("AuditWait.N = %d with %d audit outcomes", got, audits)
	}

	sessions := m.Churn.Departures + m.Churn.Crashes
	if sessions == 0 {
		t.Fatal("churny run had no departures")
	}
	if m.SessionLength.N != sessions {
		t.Fatalf("SessionLength.N = %d, want %d departures+crashes", m.SessionLength.N, sessions)
	}
	if m.SessionLength.Max < m.SessionLength.Min {
		t.Fatalf("SessionLength range inverted: [%d,%d]", m.SessionLength.Min, m.SessionLength.Max)
	}
}

// TestHistogramsSurviveResume pins that the duration histograms (and the
// in-flight arrival table feeding AdmissionLatency) ride through a
// checkpoint cut mid-waiting-period: the resumed run's histograms equal
// the uncut run's exactly.
func TestHistogramsSurviveResume(t *testing.T) {
	cfg := churnyCfg(4)

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}

	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	// Cut inside the waiting period of early arrivals so pending
	// arrival records must cross the snapshot.
	cut := sim.Tick(cfg.WaitPeriod) / 2
	if err := w.RunFor(cut); err != nil {
		t.Fatal(err)
	}
	w = roundTrip(t, w)
	if err := w.RunFor(sim.Tick(cfg.NumTrans) - cut); err != nil {
		t.Fatal(err)
	}
	w.Finish()

	for _, pair := range []struct {
		name     string
		ref, got *metrics.Histogram
	}{
		{"admission-latency", ref.Metrics().AdmissionLatency, w.Metrics().AdmissionLatency},
		{"audit-wait", ref.Metrics().AuditWait, w.Metrics().AuditWait},
		{"session-length", ref.Metrics().SessionLength, w.Metrics().SessionLength},
	} {
		if !reflect.DeepEqual(pair.ref, pair.got) {
			t.Fatalf("histogram %q diverged across resume:\nuncut: %s\nresumed: %s",
				pair.name, pair.ref.Summary(), pair.got.Summary())
		}
	}
}
