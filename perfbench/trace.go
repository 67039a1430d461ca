package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// Span is one timed call into a layer. Spans of one traced run share RunID;
// Parent is the index of the enclosing span in the recorder, or -1.
type Span struct {
	Name   string `json:"name"`
	RunID  string `json:"run_id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// AllocBytes is the heap bytes allocated while the span was open
	// (TotalAlloc delta); recorded only for spans opened with alloc=true.
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced paths call the same helpers at no cost beyond a
// nil check.
type tracer struct {
	runID string
	epoch time.Time
	spans []Span
	open  []int // stack of open span indexes
}

func newTracer(runID string) *tracer {
	return &tracer{runID: runID, epoch: time.Now()}
}

type spanHandle struct {
	t     *tracer
	i     int
	alloc bool
	a0    uint64
}

// start opens a span as a child of the innermost open span. With alloc, the
// span also records the TotalAlloc delta; reading it stops the world
// briefly, so only the per-stage batch spans ask for it.
func (t *tracer) start(name string, alloc bool) spanHandle {
	if t == nil {
		return spanHandle{}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	h := spanHandle{t: t, i: len(t.spans), alloc: alloc}
	if alloc {
		h.a0 = totalAlloc()
	}
	t.spans = append(t.spans, Span{Name: name, RunID: t.runID, Parent: parent, Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, h.i)
	return h
}

func (h spanHandle) end() {
	t := h.t
	if t == nil {
		return
	}
	sp := &t.spans[h.i]
	sp.End = int64(time.Since(t.epoch))
	if h.alloc {
		sp.AllocBytes = totalAlloc() - h.a0
	}
	t.open = t.open[:len(t.open)-1]
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// selfTimes returns every span's duration minus the part of its interval
// covered by its direct children (children of one span never overlap: the
// recorder is single-threaded).
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, sp := range t.spans {
		self[i] += time.Duration(sp.End - sp.Start)
		if sp.Parent >= 0 {
			self[sp.Parent] -= time.Duration(sp.End - sp.Start)
		}
	}
	return self
}

// layer is one span name's summary: median self time and median
// allocation over its spans.
type layer struct {
	selfMS, allocMiB float64
}

func (t *tracer) layers() map[string]layer {
	self := t.selfTimes()
	byName := map[string]*[2]samples{}
	for i, sp := range t.spans {
		s := byName[sp.Name]
		if s == nil {
			s = &[2]samples{}
			byName[sp.Name] = s
		}
		s[0].add(ms(self[i]))
		s[1].add(float64(sp.AllocBytes) / mib)
	}
	out := make(map[string]layer, len(byName))
	for name, s := range byName {
		out[name] = layer{s[0].median(), s[1].median()}
	}
	return out
}

// write stores the spans as one JSON document in recording order, which is
// start order (Parent indexes refer to it).
func (t *tracer) write(path string) error {
	b, err := json.MarshalIndent(struct {
		RunID string `json:"run_id"`
		Spans []Span `json:"spans"`
	}{t.runID, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
