package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval of the traced run, recorded by the benchmark
// around a call into a layer. Spans of one operation share op_id; parent
// names the rung above, the entry point whose interval would contain this
// one if the rungs ran nested instead of one after another.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the tracer was created
	EndNS   int64  `json:"end_ns"`
	Parent  string `json:"parent,omitempty"`
	OpID    int    `json:"op_id"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing and never reads the clock, which is how the untraced half of an
// overhead comparison runs the same code.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin reads the clock for a sampled operation.
func (t *tracer) begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// end records the span begun at start.
func (t *tracer) end(name, parent string, opID int, start time.Time) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, OpID: opID,
		StartNS: start.Sub(t.origin).Nanoseconds(), EndNS: now.Sub(t.origin).Nanoseconds()})
	t.mu.Unlock()
}

// write dumps every span as one JSON document.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"spans": t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
