package main

import (
	"context"
	"sync"
	"time"

	"entangle"
	"entangle/internal/ir"
	"entangle/internal/server"
)

// drainTimeout bounds how long a phase waits for outstanding outcomes after
// its last send; whatever has not arrived by then counts as lost.
const drainTimeout = 20 * time.Second

// collector tracks one phase's outstanding outcomes: it timestamps
// acknowledgements and results against the phase start, records spans when
// traced, and lets the phase wait for the stragglers.
type collector struct {
	start   time.Time
	tr      *Tracer       // nil when untraced
	trStart time.Duration // tracer offset of start
	wg      sync.WaitGroup
	ctx     context.Context // cancelled when the phase gives up waiting
	cancel  context.CancelFunc

	mu  sync.Mutex
	rtt []float64 // request round trips, µs
}

func newCollector(tr *Tracer) *collector {
	c := &collector{start: time.Now(), tr: tr}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	if tr != nil {
		c.trStart = tr.Now()
	}
	return c
}

func (c *collector) now() time.Duration { return time.Since(c.start) }

// addRTT records one request's round trip and its client.submit span.
func (c *collector) addRTT(parent, req int64, t0, t1 time.Duration) {
	if c.tr == nil {
		return
	}
	c.tr.Add("client.submit", parent, req, c.trStart+t0, c.trStart+t1)
	c.mu.Lock()
	c.rtt = append(c.rtt, us(t1-t0))
	c.mu.Unlock()
}

// settle closes the group's root span once its last member settled.
//
// An untraced phase has no use for a settled group's query objects and
// texts (only traced phases replay them), so they are dropped here: the
// benchmark's own records then stay small next to the system's heap and
// do not inflate the collector's work.
func (c *collector) settle(g *Group, last bool, at time.Duration) {
	if !last {
		return
	}
	if c.tr == nil {
		g.release()
		return
	}
	first := at
	g.mu.Lock()
	for _, m := range g.Members {
		if m.Sent {
			first = min(first, m.Due)
		}
	}
	g.mu.Unlock()
	c.tr.Set(g.Span, "group", 0, int64(g.ID), c.trStart+first, c.trStart+at)
}

// begin marks m as being sent and registers it as outstanding. Traced
// groups reserve their root span before the phase starts (reserveSpans).
func (c *collector) begin(g *Group, m *Member, due time.Duration) {
	g.markSent(m, due)
	c.wg.Add(1)
}

// failed settles a member whose submission was refused.
func (c *collector) failed(g *Group, m *Member, err error) {
	at := c.now()
	c.settle(g, g.refused(m, at, err), at)
	c.wg.Done()
}

// await waits for m's wire result on ch, unless the phase gives up first.
func (c *collector) await(g *Group, m *Member, id ir.QueryID, ch <-chan server.Response) {
	defer c.wg.Done()
	select {
	case r := <-ch:
		c.outcome(g, m, id, r.Status, r.Tuples, nil)
	case <-c.ctx.Done():
	}
}

// waiter is an in-process handle: a root-API *entangle.Handle, or an
// engine handle returned by recovery (engineWaiter).
type waiter interface {
	Wait(ctx context.Context) (entangle.Result, error)
}

// awaitResult waits for an in-process outcome on h, unless the phase gives
// up first. after, when set, runs once the outcome is recorded.
func (c *collector) awaitResult(g *Group, m *Member, id ir.QueryID, h waiter, after func(g *Group, last bool, at time.Duration)) {
	defer c.wg.Done()
	r, err := h.Wait(c.ctx)
	if err != nil {
		return // given up: the missing outcome fails the oracle check
	}
	var tuples []string
	if r.Answer != nil {
		for _, t := range r.Answer.Tuples {
			tuples = append(tuples, t.String())
		}
	}
	c.outcome(g, m, id, r.Status.String(), tuples, after)
}

// outcome records a member's terminal result and its client.wait span.
func (c *collector) outcome(g *Group, m *Member, id ir.QueryID, status string, tuples []string, after func(*Group, bool, time.Duration)) {
	at := c.now()
	last := g.record(m, at, status, tuples)
	if c.tr != nil {
		c.tr.Add("client.wait", g.Span, int64(id), c.trStart+m.Acked, c.trStart+at)
	}
	c.settle(g, last, at)
	if after != nil {
		after(g, last, at)
	}
}

// drain waits for every outstanding outcome, giving up after timeout.
func (c *collector) drain(timeout time.Duration) {
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
	}
	c.cancel()
	<-done
}

// sendSQL submits one member as entangled SQL on client cl.
func (c *collector) sendSQL(cl *server.Client, e event) {
	g, m := e.G, e.M
	c.begin(g, m, e.Due)
	t0 := c.now()
	id, ch, err := cl.SubmitSQL(m.Text)
	t1 := c.now()
	if err != nil {
		c.failed(g, m, err)
		return
	}
	g.acked(m, id, t1)
	c.addRTT(g.Span, int64(id), t0, t1)
	go c.await(g, m, id, ch)
}

// runOpenLoop runs one generator goroutine per event list and returns the
// lateness of every send once all lists are exhausted.
func runOpenLoop(c *collector, lists [][]event, send func(e event)) []time.Duration {
	var wg sync.WaitGroup
	lates := make([][]time.Duration, len(lists))
	for i, evs := range lists {
		wg.Add(1)
		go func(i int, evs []event) {
			defer wg.Done()
			lates[i] = openLoop(c.start, evs, send)
		}(i, evs)
	}
	wg.Wait()
	var all []time.Duration
	for _, l := range lates {
		all = append(all, l...)
	}
	return all
}

// reserveSpans gives every group a root span ID when the phase is traced.
func reserveSpans(tr *Tracer, groups []*Group) {
	if tr == nil {
		return
	}
	for _, g := range groups {
		g.Span = tr.Reserve()
	}
}
