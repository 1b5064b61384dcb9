package main

import (
	"testing"
	"time"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	// parent [0,100) has children [10,40) and [30,60) that overlap on
	// [30,40), a child [90,120) that runs past the parent's end, and a
	// grandchild inside the first child. The covered part of the parent
	// is [10,60) ∪ [90,100) = 60, so its self time is 40, not 100-30-30-30.
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "grandchild", Start: 15, End: 25},
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"parent":     {Self: 40, Calls: 1},
		"child":      {Self: 30 - 10 + 30, Calls: 2},
		"late":       {Self: 30, Calls: 1},
		"grandchild": {Self: 10, Calls: 1},
		"other":      {Self: 7, Calls: 1},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: self %v over %d calls, want %v over %d", name, got[name].Self, got[name].Calls, w.Self, w.Calls)
		}
	}
}

func TestCoveredNestedAndDisjoint(t *testing.T) {
	p := span{Start: 0, End: 100}
	for _, tc := range []struct {
		kids []span
		want int64
	}{
		{nil, 0},
		{[]span{{Start: 0, End: 100}, {Start: 20, End: 30}}, 100}, // nested
		{[]span{{Start: 50, End: 60}, {Start: 10, End: 20}}, 20},  // disjoint, unsorted
		{[]span{{Start: 10, End: 20}, {Start: 20, End: 30}}, 20},  // touching
		{[]span{{Start: -10, End: 5}, {Start: 120, End: 130}}, 5}, // clipped
	} {
		if got := covered(p, tc.kids); got != tc.want {
			t.Errorf("covered(%v) = %d, want %d", tc.kids, got, tc.want)
		}
	}
}

func TestNilTracerIsANoOp(t *testing.T) {
	var tr *tracer
	s := tr.open("x", 0, 0)
	tr.close(s)
	if tr.snapshot() != nil {
		t.Fatal("nil tracer recorded a span")
	}
	live := newTracer()
	a := live.open("outer", 0, 1)
	b := live.open("inner", a.ID, 1)
	time.Sleep(time.Millisecond)
	live.close(b)
	live.close(a)
	got := selfTimes(live.snapshot())
	if got["inner"].Self < time.Millisecond || got["outer"].Self >= got["inner"].Self {
		t.Errorf("outer self %v, inner self %v", got["outer"].Self, got["inner"].Self)
	}
}
