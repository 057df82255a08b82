package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The span recorder is the benchmark's own, not the program's
// observe.Tracer, so a change to the program's tracing cannot change
// how the benchmark measures. Spans are timed around public calls from
// the benchmark's files, kept in memory and written once at exit.

// span is one timed interval. Parent is 0 for a root; spans of one op
// (a detection run, a swap, a read) share Op.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Op     int                `json:"op"`
	Name   string             `json:"name"`
	Start  time.Duration      `json:"start_ns"`
	End    time.Duration      `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder collects spans from any goroutine. A nil *recorder records
// nothing, so untraced runs pass nil and pay one comparison per call.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder). A root
// span (parent 0) starts a new op unless op is given.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	if op == 0 {
		op = id
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// end closes span id and attaches attrs to it.
func (r *recorder) end(id int, attrs map[string]float64) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	if len(attrs) > 0 {
		s.Attrs = attrs
	}
}

// annotate adds attrs to the already closed span id.
func (r *recorder) annotate(id int, attrs map[string]float64) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	if s.Attrs == nil {
		s.Attrs = make(map[string]float64, len(attrs))
	}
	for k, v := range attrs {
		s.Attrs[k] = v
	}
}

// opOf returns the op id of span id.
func (r *recorder) opOf(id int) int {
	if r == nil || id == 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1].Op
}

// snapshot returns a copy of every span recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile writes every span as one JSON document.
func (r *recorder) writeFile(path string) error {
	b, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time keyed by id: its duration
// minus the part of its interval that its children cover. Children may
// overlap each other (concurrent calls) or stick out of the parent; the
// covered part is the union of the children's intervals clipped to the
// parent, so overlapping time is subtracted once.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered returns the length of the union of the intervals of kids
// inside [lo, hi].
func covered(lo, hi time.Duration, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// layerSelf sums self time by span name over the spans whose root is
// named root — the per-layer breakdown of those ops.
func layerSelf(spans []span, root string) (byName map[string]time.Duration, rootTotal time.Duration) {
	self := selfTimes(spans)
	rootOps := make(map[int]bool)
	for _, s := range spans {
		if s.Parent == 0 && s.Name == root {
			rootOps[s.Op] = true
			rootTotal += s.dur()
		}
	}
	byName = make(map[string]time.Duration)
	for _, s := range spans {
		if rootOps[s.Op] {
			byName[s.Name] += self[s.ID]
		}
	}
	return byName, rootTotal
}
