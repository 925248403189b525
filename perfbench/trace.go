package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, start and end, and the
// span that caused it (0 for a root). Spans of one operation (a training
// step, a request) share an op id.
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent,omitempty"`
	Op     int64     `json:"op"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// tracer keeps spans in memory; writeSpans writes them out as JSONL once
// the measurement is over, so the file write never sits on a timed path.
// A nil tracer records nothing: every call is one branch.
type tracer struct {
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{} }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, op, parent int64) (int64, time.Time) {
	now := time.Now()
	if t == nil {
		return 0, now
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	t.mu.Unlock()
	return id, now
}

func (t *tracer) end(id int64) time.Duration {
	now := time.Now()
	if t == nil || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return now.Sub(s.Start)
}

// do runs f inside a span.
func (t *tracer) do(name string, op, parent int64, f func()) {
	id, _ := t.begin(name, op, parent)
	f()
	t.end(id)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent > 0 && !s.End.IsZero() {
			child[s.Parent-1] += s.End.Sub(s.Start)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.End.IsZero() {
			continue
		}
		out[s.Name] += s.End.Sub(s.Start) - child[i]
	}
	return out
}

// durations returns every closed span's duration for one name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && !s.End.IsZero() {
			out = append(out, s.End.Sub(s.Start))
		}
	}
	return out
}

// writeSpans writes the spans of every tracer to path as JSONL; span ids
// are unique within their tracer, numbered by "trace".
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, t := range tracers {
		t.mu.Lock()
		for _, s := range t.spans {
			line := struct {
				Trace int `json:"trace"`
				span
			}{i, s}
			if err = enc.Encode(line); err != nil {
				break
			}
		}
		t.mu.Unlock()
		if err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
