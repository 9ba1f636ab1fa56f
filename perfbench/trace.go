package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer keeps the traced pass's spans in memory; they are written
// once, when the workload ends, so writing never stalls a measured run.
// A nil *tracer records nothing, which is how the untraced pass runs.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed interval at a layer boundary. Parent is the ID of
// the span that caused it (0 at the top); Run groups the spans of one
// library run or one service operation.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its ID (0 on a nil tracer).
func (t *tracer) add(name string, parent, run int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Run: run, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(),
		End:   end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// reserve records a span whose end is not known yet; finish sets it.
// Children can name the reserved ID as their parent meanwhile.
func (t *tracer) reserve(name string, parent, run int, start time.Time) int {
	return t.add(name, parent, run, start, start)
}

func (t *tracer) finish(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(t.epoch).Nanoseconds()
}

// withSelfTimes returns the spans with Self filled in: a span's
// duration minus the part of it its children cover. Children of one
// parent may overlap (concurrent service operations), so coverage is
// the union of their intervals clipped to the parent.
func (t *tracer) withSelfTimes() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range out {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range out {
		s := &out[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered int64
		cur := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		s.Self = (s.End - s.Start) - covered
	}
	return out
}

// write stores the spans as NDJSON and the per-layer metrics as JSON
// next to them, as <dir>/<stem>.spans.ndjson and <dir>/<stem>.layers.json.
func (t *tracer) write(dir, stem string, layers map[string]Metric, samples map[string]int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, stem+".spans.ndjson"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.withSelfTimes() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	body, err := json.MarshalIndent(struct {
		Metrics map[string]Metric `json:"metrics"`
		Samples map[string]int    `json:"samples"`
	}{layers, samples}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, stem+".layers.json"), append(body, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing per-layer metrics: %w", err)
	}
	return nil
}
