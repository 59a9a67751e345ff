package main

import (
	"fmt"
	"strings"
	"testing"

	"entangle/internal/ir"
)

// miniOracle is a hand-built substrate: a, b and c live in PAR, d in ROM.
func miniOracle() *Oracle {
	return NewOracle(map[string]string{"a": "PAR", "b": "PAR", "c": "PAR", "d": "ROM"})
}

func group(id int, users ...string) *Group {
	g := &Group{ID: id, Rel: fmt.Sprintf("R_g%d", id), Dest: "NYC"}
	for i, u := range users {
		g.Members = append(g.Members, &Member{User: u, ID: ir.QueryID(10*id + i)})
	}
	return g
}

func sentAll(*Group) func(int) bool { return func(int) bool { return true } }

func TestOracleVerdicts(t *testing.T) {
	o := miniOracle()
	same := group(1, "a", "b", "c")
	for i, e := range o.expect(same, sentAll(same)) {
		want := "R_g1(" + same.Members[i].User + ", NYC)"
		if e.Status != "answered" || e.Tuple != want {
			t.Errorf("member %d of a same-city group: %+v, want answered %s", i, e, want)
		}
	}
	mixed := group(2, "a", "d")
	for i, e := range o.expect(mixed, sentAll(mixed)) {
		if e.Status != "rejected" {
			t.Errorf("member %d of a mixed-city group: %+v, want rejected", i, e)
		}
	}
	cut := group(3, "a", "b")
	for i, e := range o.expect(cut, func(i int) bool { return i == 0 }) {
		if e.Status != "stale" {
			t.Errorf("member %d of an incomplete group: %+v, want stale", i, e)
		}
	}
	// A user added by the workload's own load joins the city it was given.
	o.SetHome("n1", "ROM")
	late := group(4, "d", "n1")
	if e := o.expect(late, sentAll(late)); e[0].Status != "answered" {
		t.Errorf("group with a loaded user: %+v, want answered", e)
	}
	unknown := group(5, "a", "zz")
	if e := o.expect(unknown, sentAll(unknown)); e[0].Status != "rejected" {
		t.Errorf("group with an unknown user: %+v, want rejected", e)
	}
}

func TestOracleCheckFlagsEveryKindOfFailure(t *testing.T) {
	o := miniOracle()
	g := group(1, "a", "b", "c")
	for _, m := range g.Members {
		g.markSent(m, 0)
	}
	g.record(g.Members[0], 1, "answered", []string{"R_g1(a, NYC)"}) // right
	g.record(g.Members[1], 1, "answered", []string{"R_g1(d, NYC)"}) // wrong tuple
	g.record(g.Members[1], 2, "answered", []string{"R_g1(b, NYC)"}) // and a second outcome
	// c never hears back.
	fs := o.check(g)
	if len(fs) != 2 {
		t.Fatalf("failures = %v, want two", fs)
	}
	if !strings.Contains(fs[0].Reason, "2 outcomes") || !strings.Contains(fs[1].Reason, "no outcome") {
		t.Errorf("failures = %v", fs)
	}
	if g.Members[0].Bad || !g.Members[1].Bad || !g.Members[2].Bad {
		t.Error("only the failing members must be marked bad")
	}

	h := group(2, "a", "d")
	for _, m := range h.Members {
		h.markSent(m, 0)
	}
	h.record(h.Members[0], 1, "answered", []string{"R_g2(a, NYC)"})
	h.record(h.Members[1], 1, "rejected", nil)
	fs = o.check(h)
	if len(fs) != 1 || !strings.Contains(fs[0].Reason, "oracle says rejected") {
		t.Errorf("a wrong status must fail: %v", fs)
	}

	s := group(3, "a", "b")
	s.markSent(s.Members[0], 0)
	s.refused(s.Members[0], 1, errString("overloaded"))
	fs = o.check(s)
	if len(fs) != 1 || !strings.Contains(fs[0].Reason, "submission failed") {
		t.Errorf("a refused submission must fail: %v", fs)
	}
}

type errString string

func (e errString) Error() string { return string(e) }

func TestCutPartners(t *testing.T) {
	cut := group(1, "a", "b", "c")
	cut.Members[0].Sent = true // the crash came before b and c were sent
	if got := cutPartners(cut); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("cut group: partners %v, want [1 2]", got)
	}
	never := group(2, "a", "b", "c")
	never.Drop = 1
	never.Members[1].Sent = true // a was sent and expired before the crash; b is still pending
	never.Members[0].Sent = true
	if got := cutPartners(never); len(got) != 0 {
		t.Errorf("never-completing group: partners %v, want none", got)
	}
}
