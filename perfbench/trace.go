package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation (a cell,
// a program or a request) share its op label; parent indexes the
// enclosing span in the same file, -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory; write puts them in
// a JSONL file when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

// op starts recording one operation. An opTrace belongs to one
// goroutine; finish hands its spans to the tracer.
func (tr *tracer) op(label string) *opTrace { return &opTrace{tr: tr, label: label} }

func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			tr.mu.Unlock()
			f.Close()
			return err
		}
	}
	tr.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opTrace records the spans of one operation.
type opTrace struct {
	tr    *tracer
	label string
	spans []span
}

// begin opens a span under parent (-1 for the root) and returns its
// index for end and for children.
func (o *opTrace) begin(name string, parent int) int {
	o.spans = append(o.spans, span{ID: len(o.spans), Parent: parent, Op: o.label, Name: name, Start: o.tr.now()})
	return len(o.spans) - 1
}

// end closes span i and returns its duration.
func (o *opTrace) end(i int) time.Duration {
	o.spans[i].End = o.tr.now()
	return time.Duration(o.spans[i].End - o.spans[i].Start)
}

// add records a span measured elsewhere, such as a handler time taken
// from a response header.
func (o *opTrace) add(name string, parent int, start, end int64) int {
	o.spans = append(o.spans, span{ID: len(o.spans), Parent: parent, Op: o.label, Name: name, Start: start, End: end})
	return len(o.spans) - 1
}

// finish appends the operation's spans to the tracer, renumbered into
// the run-wide ID space.
func (o *opTrace) finish() {
	o.tr.mu.Lock()
	base := len(o.tr.spans)
	for _, s := range o.spans {
		s.ID += base
		if s.Parent >= 0 {
			s.Parent += base
		}
		o.tr.spans = append(o.tr.spans, s)
	}
	o.tr.mu.Unlock()
}
