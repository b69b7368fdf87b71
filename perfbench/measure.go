package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// cpuTime is the process CPU time so far: user plus system, every thread
// (simulation, GC workers and in-process fleet workers alike).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the kernel's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// memSample is one read of the Go runtime's memory counters.
type memSample struct {
	allocBytes, allocObjects, gcCycles, heapLive float64
	gcCPU                                        float64
}

var memNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/live:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readMem() memSample {
	s := make([]metrics.Sample, len(memNames))
	for i, n := range memNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return memSample{allocBytes: v(0), allocObjects: v(1), gcCycles: v(2), heapLive: v(3), gcCPU: v(4)}
}

// addMem records the runtime's allocation and GC work between two reads.
func (r *runner) addMem(m0, m1 memSample) {
	r.addLayer("mem.alloc_mb", (m1.allocBytes-m0.allocBytes)/(1<<20))
	r.addLayer("mem.allocs", m1.allocObjects-m0.allocObjects)
	r.addLayer("mem.gc_cycles", m1.gcCycles-m0.gcCycles)
	r.addLayer("mem.gc_cpu_s", m1.gcCPU-m0.gcCPU)
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() float64 {
	runtime.GC()
	return readMem().heapLive
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tracer records the benchmark's own spans around every call it makes
// into a layer: name, start, end and parent, all under one run id. Spans
// stay in memory and are written out once the run ends. A nil tracer
// records nothing, which is how untraced runs skip it.
type tracer struct {
	run   string
	t0    time.Time
	spans []spanRecord
	stack []int
}

type spanRecord struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Program spans come from the simulator's own telemetry.Spans
	// recorder, which keeps per-name totals only: such a record carries
	// the total and count accumulated inside its parent span.
	Program bool  `json:"program,omitempty"`
	Count   int64 `json:"count,omitempty"`
	Total   int64 `json:"total_ns,omitempty"`
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// begin opens a span under the innermost open one; the returned closure
// closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRecord{Run: t.run, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return func() {
		t.spans[id-1].End = int64(time.Since(t.t0))
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// program attaches the growth of the simulator's span totals since prev
// as child records of the innermost open span, and returns the new
// totals.
func (t *tracer) program(sp *telemetry.Spans, prev map[string]telemetry.SpanStat) map[string]telemetry.SpanStat {
	cur := map[string]telemetry.SpanStat{}
	for _, st := range sp.Stats() {
		cur[st.Name] = st
	}
	if t == nil {
		return cur
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := cur[name].Total - prev[name].Total
		c := cur[name].Count - prev[name].Count
		if c == 0 {
			continue
		}
		t.spans = append(t.spans, spanRecord{
			Run: t.run, ID: len(t.spans) + 1, Parent: parent, Name: name,
			Program: true, Count: c, Total: int64(d),
		})
	}
	return cur
}

// layerTime is one span name's accumulated wall time.
type layerTime struct {
	name        string
	count       int64
	total, self time.Duration
}

// layers folds the recorded spans into per-name totals and self times: a
// span's self time is its duration minus the time its children cover.
func (t *tracer) layers() []layerTime {
	child := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.duration()
		}
	}
	by := map[string]*layerTime{}
	var order []string
	for _, s := range t.spans {
		l, ok := by[s.Name]
		if !ok {
			l = &layerTime{name: s.Name}
			by[s.Name] = l
			order = append(order, s.Name)
		}
		n := s.Count
		if !s.Program {
			n = 1
		}
		l.count += n
		l.total += s.duration()
		l.self += s.duration() - child[s.ID]
	}
	out := make([]layerTime, 0, len(order))
	for _, n := range order {
		out = append(out, *by[n])
	}
	return out
}

func (s spanRecord) duration() time.Duration {
	if s.Program {
		return time.Duration(s.Total)
	}
	return time.Duration(s.End - s.Start)
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing %s: %w", path, err)
	}
	return path, nil
}
