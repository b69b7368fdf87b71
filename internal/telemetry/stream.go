package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// DefaultFlushEvery is the retained-record ceiling of a StreamSink: the
// buffer is flushed to the writer whenever this many records are
// pending, so peak telemetry memory is a small constant regardless of
// run length.
const DefaultFlushEvery = 256

// StreamSink exports the record stream as JSON lines, flushing
// incrementally with bounded memory. Each record is one line tagged with
// its type:
//
//	{"t":"event","at":12,"kind":"arrival","peer":"ab12cd34"}
//	{"t":"sample","at":500,"series":"coop","v":100}
//
// The sink never retains more than DefaultFlushEvery records; PeakRetained
// exposes the high-water mark so tests can assert the ceiling held.
// Write errors are sticky: the first one is kept, later records are
// dropped, and Flush reports it.
type StreamSink struct {
	w          io.Writer
	buf        bytes.Buffer
	enc        *json.Encoder
	flushEvery int
	retained   int
	peak       int
	written    int64
	err        error
}

// eventRecord and sampleRecord are the on-the-wire line shapes; t names
// the record type so a reader can demultiplex the stream.
type (
	eventRecord struct {
		T string `json:"t"`
		Event
	}
	sampleRecord struct {
		T string `json:"t"`
		Sample
	}
)

// NewStreamSink returns a sink streaming JSONL records to w.
func NewStreamSink(w io.Writer) *StreamSink {
	s := &StreamSink{w: w, flushEvery: DefaultFlushEvery}
	s.enc = json.NewEncoder(&s.buf)
	return s
}

// Event implements Sink.
func (s *StreamSink) Event(e Event) {
	s.push(eventRecord{T: "event", Event: e})
}

// Sample implements Sink.
func (s *StreamSink) Sample(sm Sample) {
	s.push(sampleRecord{T: "sample", Sample: sm})
}

func (s *StreamSink) push(r any) {
	if s.err != nil {
		return
	}
	if err := s.enc.Encode(r); err != nil {
		s.err = fmt.Errorf("telemetry: encoding record: %w", err)
		return
	}
	s.written++
	s.retained++
	if s.retained > s.peak {
		s.peak = s.retained
	}
	if s.retained >= s.flushEvery {
		s.flush()
	}
}

func (s *StreamSink) flush() {
	if s.buf.Len() > 0 && s.err == nil {
		if _, err := s.w.Write(s.buf.Bytes()); err != nil {
			s.err = fmt.Errorf("telemetry: writing stream: %w", err)
		}
	}
	s.buf.Reset()
	s.retained = 0
}

// Flush implements Sink: it drains the buffer and reports the first
// error seen.
func (s *StreamSink) Flush() error {
	s.flush()
	return s.err
}

// Written returns the number of records accepted so far.
func (s *StreamSink) Written() int64 { return s.written }

// PeakRetained returns the high-water mark of records buffered at once —
// the bounded-memory ceiling the sink guarantees.
func (s *StreamSink) PeakRetained() int { return s.peak }
