package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	spans := []span{
		{ID: 1, Op: 1, Name: "op", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Op: 1, Name: "b", Start: ms(30), End: ms(60)},  // overlaps a
		{ID: 4, Parent: 1, Op: 1, Name: "c", Start: ms(90), End: ms(120)}, // sticks out of op
		{ID: 5, Parent: 2, Op: 1, Name: "a.x", Start: ms(15), End: ms(25)},
		{ID: 6, Op: 6, Name: "read", Start: ms(50), End: ms(55)}, // another root
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: ms(40), // 100 - |[10,60] ∪ [90,100]|
		2: ms(20), // 30 - 10 for its own child
		3: ms(30),
		4: ms(30),
		5: ms(10),
		6: ms(5),
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}

	byName, total := layerSelf(spans, "op")
	if total != ms(100) {
		t.Errorf("op total = %v, want 100ms", total)
	}
	if byName["read"] != 0 {
		t.Errorf("a read, which is not under an op, was counted: %v", byName["read"])
	}
	if byName["a"] != ms(20) || byName["op"] != ms(40) {
		t.Errorf("by-name self times = %v", byName)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin("x", 0, 0)
	r.end(id, nil)
	if id != 0 || r.opOf(id) != 0 || r.snapshot() != nil {
		t.Error("a nil recorder recorded a span")
	}
}

func TestRecorderSharesOpAcrossChildren(t *testing.T) {
	r := newRecorder()
	root := r.begin("op", 0, 0)
	child := r.begin("gvecsr.open", root, r.opOf(root))
	r.end(child, nil)
	r.end(root, map[string]float64{"detect_s": 1})
	other := r.begin("read", 0, 0)
	r.end(other, nil)
	s := r.snapshot()
	if s[1].Op != s[0].Op || s[1].Parent != s[0].ID || s[2].Op == s[0].Op {
		t.Errorf("op ids: %+v", s)
	}
	if s[0].Attrs["detect_s"] != 1 || s[0].End < s[1].End {
		t.Errorf("root span: %+v", s[0])
	}
}
