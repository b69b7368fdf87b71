// Package fixture exercises the maporder analyzer: every
// order-sensitive effect class it flags, and the order-independent
// patterns it must leave alone.
package fixture

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// keysUnsorted builds an observable sequence in map order: flagged.
func keysUnsorted(m map[string]int) []string {
	var out []string
	for k := range m { // want `appends to out`
		out = append(out, k)
	}
	return out
}

// keysSorted is the canonical collect-then-sort repair: accepted.
func keysSorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// keysSortedByHelper sorts through a local helper whose name says so:
// accepted.
func keysSortedByHelper(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sortStrings(out)
	return out
}

func sortStrings(s []string) { sort.Strings(s) }

// perKeyBuckets writes each loop key's own bucket: order-independent,
// accepted.
func perKeyBuckets(m map[string][]int) map[string][]int {
	out := map[string][]int{}
	for k, vs := range m {
		out[k] = append(out[k], vs...)
	}
	return out
}

// intCounter accumulates an integer: order-independent, accepted.
func intCounter(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// floatSum accumulates a float: the last ulps follow iteration order,
// flagged.
func floatSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want `accumulates the floating-point value sum`
		sum += v
	}
	return sum
}

// localAppend appends to a slice declared inside the loop body:
// order-local, accepted.
func localAppend(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		n += len(local)
	}
	return n
}

// printStream writes lines in map order: flagged.
func printStream(m map[string]int) {
	for k, v := range m { // want `calls fmt\.Println`
		fmt.Println(k, v)
	}
}

// writeOuter writes to a buffer declared outside the loop: flagged.
func writeOuter(m map[string]int) string {
	var buf bytes.Buffer
	for k := range m { // want `calls WriteString on buf`
		buf.WriteString(k)
	}
	return buf.String()
}

// writeLocal writes to a buffer created per iteration: accepted.
func writeLocal(m map[string]int) int {
	n := 0
	for k := range m {
		var buf bytes.Buffer
		buf.WriteString(k)
		n += buf.Len()
	}
	return n
}

// busEmit publishes telemetry events in map order: flagged.
func busEmit(b *telemetry.Bus, m map[string]int) {
	for k := range m { // want `telemetry/trace/metrics event order follows map iteration order`
		b.Event(telemetry.Event{Kind: telemetry.Kind(k)})
	}
}

// traceEmit feeds the event log in map order: flagged.
func traceEmit(l *trace.Log, m map[string]int) {
	for k := range m { // want `telemetry/trace/metrics event order follows map iteration order`
		l.Event(telemetry.Event{Kind: telemetry.Kind(k)})
	}
}

// seriesEmit appends metrics samples in map order: flagged.
func seriesEmit(s *metrics.Series, m map[int64]float64) {
	for t, v := range m { // want `telemetry/trace/metrics event order follows map iteration order`
		s.Append(t, v)
	}
}

// channelSend publishes elements in map order: flagged.
func channelSend(m map[string]int, ch chan string) {
	for k := range m { // want `sends on a channel`
		ch <- k
	}
}
