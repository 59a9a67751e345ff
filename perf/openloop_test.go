package main

import (
	"testing"
	"time"
)

// A send that stalls delays the sends queued behind it. Measured from each
// event's due time, their latency includes that wait; measured from when
// they were finally sent, it would vanish (coordinated omission).
func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	evs := make([]event, 10)
	for i := range evs {
		evs[i] = event{Due: time.Duration(i) * time.Millisecond, Batch: i}
	}
	start := time.Now()
	sentAt := make([]time.Duration, len(evs))
	ackAt := make([]time.Duration, len(evs))
	late := openLoop(start, evs, func(e event) {
		sentAt[e.Batch] = time.Since(start)
		if e.Batch == 0 {
			time.Sleep(stall)
		}
		ackAt[e.Batch] = time.Since(start)
	})
	if len(late) != len(evs) {
		t.Fatalf("got %d lateness samples for %d events", len(late), len(evs))
	}
	for i, e := range evs {
		if sentAt[i] < e.Due {
			t.Errorf("event %d sent at %v, before it was due at %v", i, sentAt[i], e.Due)
		}
		if late[i] < 0 {
			t.Errorf("event %d has negative lateness %v", i, late[i])
		}
	}
	// Event 5 was due at 5ms but could only go out after the 60ms stall.
	if lat := ackAt[5] - evs[5].Due; lat < stall-evs[5].Due {
		t.Errorf("event 5 latency from due time = %v, want at least %v", lat, stall-evs[5].Due)
	}
	if late[5] < stall-evs[5].Due {
		t.Errorf("event 5 lateness = %v, want at least %v", late[5], stall-evs[5].Due)
	}
	// Its own service time was tiny: timing from the send would hide the stall.
	if svc := ackAt[5] - sentAt[5]; svc > stall/2 {
		t.Errorf("event 5 service time %v unexpectedly large", svc)
	}
}

func TestCollectLatenciesFromDueTimes(t *testing.T) {
	g := &Group{ID: 1, Rel: "R_g1", Dest: "D", Members: []*Member{
		{User: "a", Sent: true, Due: 10, Acked: 12, Done: 50, Status: "answered"},
		{User: "b", Sent: true, Due: 30, Acked: 35, Done: 40, Status: "answered"},
	}}
	stale := &Group{ID: 2, Rel: "R_g2", Dest: "D", Drop: 1, Members: []*Member{
		{User: "c", Sent: true, Due: 5, Acked: 6, Done: 99, Status: "stale"},
		{User: "d"},
	}}
	l := collectLatencies([]*Group{g, stale})
	if len(l.coord) != 1 || l.coord[0] != ms(50-30) {
		t.Errorf("coord samples = %v, want one of %v (closing member due 30, last outcome 50)", l.coord, ms(20))
	}
	if len(l.ack) != 3 || l.ack[0] != ms(2) || l.ack[1] != ms(5) || l.ack[2] != ms(1) {
		t.Errorf("ack samples = %v", l.ack)
	}
}
