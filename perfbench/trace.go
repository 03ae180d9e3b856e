package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Spans of one request share req; parent is the span that made
// the call (0 for a request's root).
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every finished span in memory until dump. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	reqs  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newReq() uint64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

func (t *tracer) begin(name string, req, parent uint64) span {
	if t == nil {
		return span{}
	}
	return span{Name: name, Req: req, ID: t.ids.Add(1), Parent: parent, Start: int64(time.Since(t.t0))}
}

func (t *tracer) end(s span) span {
	if t == nil {
		return s
	}
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// dump writes the spans as gzipped JSON lines, in start order.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanIndex groups finished spans for the per-layer computations.
type spanIndex struct {
	byName   map[string][]span
	children map[uint64][]span
}

func (t *tracer) index() *spanIndex {
	t.mu.Lock()
	defer t.mu.Unlock()
	ix := &spanIndex{byName: map[string][]span{}, children: map[uint64][]span{}}
	for _, s := range t.spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap (db_gen fans statements out over workers), so the
// covered part is the union of their intervals clipped to the span.
func (ix *spanIndex) selfTime(s span) int64 {
	kids := ix.children[s.ID]
	if len(kids) == 0 {
		return s.dur()
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			covered += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	covered += curB - curA
	return s.dur() - covered
}

// perReq sums the durations of the named spans per request.
func (ix *spanIndex) perReq(name string) map[uint64]int64 {
	out := map[uint64]int64{}
	for _, s := range ix.byName[name] {
		out[s.Req] += s.dur()
	}
	return out
}
