package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Start and End are offsets
// from the tracer's epoch; Req is the request the span serves (a query or
// group ID) and Parent the span that caused it (0 for a root).
type Span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Name   string        `json:"name"`
	Req    int64         `json:"req"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur returns the span's duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay one nil check per boundary.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []Span
}

// NewTracer returns a tracer whose span offsets count from now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Now returns the current offset from the tracer's epoch.
func (t *Tracer) Now() time.Duration { return time.Since(t.epoch) }

// Add records a finished span.
func (t *Tracer) Add(name string, parent, req int64, start, end time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.next++
	t.spans = append(t.spans, Span{ID: t.next, Parent: parent, Name: name, Req: req, Start: start, End: end})
	t.mu.Unlock()
}

// Reserve allocates a span ID for a span whose end is not known yet (a
// group root whose children are recorded first); Set fills it in later.
func (t *Tracer) Reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return id
}

// Set records a span under an ID obtained from Reserve.
func (t *Tracer) Set(id int64, name string, parent, req int64, start, end time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: end})
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children's intervals (children
// may overlap one another and may stick out of the parent; only the
// overlap with the parent counts).
func selfTimes(spans []Span) map[int64]time.Duration {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			cur, open = v, true
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if open {
		total += cur.b - cur.a
	}
	return total
}

// selfTotals sums self time per span name.
func selfTotals(spans []Span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// spanSummary renders one line per span name: count, total and self time.
func spanSummary(spans []Span) []string {
	type agg struct {
		n     int
		total time.Duration
	}
	by := make(map[string]*agg)
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.total += s.Dur()
	}
	self := selfTotals(spans)
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, 0, len(names))
	for _, n := range names {
		a := by[n]
		out = append(out, fmt.Sprintf("span %-24s n=%-7d total=%-12v self=%v", n, a.n, a.total.Round(time.Microsecond), self[n].Round(time.Microsecond)))
	}
	return out
}
