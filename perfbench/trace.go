package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"streamkm/internal/trace"
)

// traceCapacity bounds the spans one traced run keeps; a run records a
// few tens of thousands, and write fails if any were dropped.
const traceCapacity = 1 << 20

// tracer records spans around the benchmark's calls into the layers on
// an internal/trace.Tracer, keeps them in memory, and writes them out
// once, when the run ends. A nil *tracer records nothing, so untraced
// runs pay only a nil check.
type tracer struct{ t *trace.Tracer }

func newTracer() *tracer { return &tracer{trace.New(traceCapacity)} }

// span starts a span named op (layer.Function) and returns its closer.
func (t *tracer) span(op, item string, labels ...trace.Label) func() {
	if t == nil {
		return func() {}
	}
	return t.t.SpanL(op, item, labels...)
}

// time runs fn inside a span and returns fn's duration.
func (t *tracer) time(op string, fn func()) time.Duration {
	done := t.span(op, "")
	start := time.Now()
	fn()
	d := time.Since(start)
	done()
	return d
}

// seconds returns the durations, in seconds, of every span named op.
func (t *tracer) seconds(op string) []float64 {
	var out []float64
	for _, s := range t.t.Spans() {
		if s.Op == op {
			out = append(out, s.Duration().Seconds())
		}
	}
	return out
}

// write dumps every span as one JSON document.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if n := t.t.Dropped(); n > 0 {
		return fmt.Errorf("%d spans dropped beyond the tracer's capacity", n)
	}
	b, err := json.Marshal(struct {
		Spans []trace.Span `json:"spans"`
	}{t.t.Spans()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
