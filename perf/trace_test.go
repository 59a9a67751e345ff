package main

import "testing"

func TestSelfTimeSubtractsTheUnionOfOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "group", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a: together they cover 10..60
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // sticks out: only 90..100 counts
		{ID: 5, Parent: 1, Name: "d", Start: 150, End: 160},
		{ID: 6, Parent: 2, Name: "e", Start: 15, End: 25}, // grandchild: counts against a, not group
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 10, 2: 30 - 10, 3: 30, 4: 30, 5: 10, 6: 10}
	for id, w := range want {
		if got := int64(self[id]); got != w {
			t.Errorf("self time of span %d = %d, want %d", id, got, w)
		}
	}
	tot := selfTotals(spans)
	if tot["group"] != 40 || tot["a"] != 20 {
		t.Errorf("self totals = %v", tot)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	tr.Add("x", 0, 0, 0, 1)
	if tr.Reserve() != 0 || tr.Spans() != nil {
		t.Error("nil tracer must stay empty")
	}
}

func TestTracerReserveThenSet(t *testing.T) {
	tr := NewTracer()
	root := tr.Reserve()
	tr.Add("child", root, 7, 5, 8)
	tr.Set(root, "group", 0, 7, 0, 10)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	if self := selfTimes(spans)[root]; self != 7 {
		t.Errorf("root self time = %v, want 7", self)
	}
}
