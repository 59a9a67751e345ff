package entangle

import (
	"context"
	"sync/atomic"

	"entangle/internal/engine"
	"entangle/internal/ir"
)

// Subscription streams the terminal Results of a whole submitted query set
// over one channel, in delivery order — the streaming alternative to
// holding one Handle per query. Heavy-traffic callers submitting thousands
// of entangled queries consume a single channel instead of selecting over
// thousands of Done channels; internally each engine handle's Notify
// callback fans its result in, so a subscription costs no goroutines at all.
type Subscription struct {
	ids       []ir.QueryID
	ch        chan Result
	remaining atomic.Int64
}

// IDs returns the engine-assigned query IDs, in input order.
func (s *Subscription) IDs() []ir.QueryID { return s.ids }

// Results returns the stream of terminal results: exactly one Result per
// submitted query, in the order the engine resolves them (not input
// order — route by Result.QueryID). The channel is closed after the last
// result; range over it. The channel is buffered to the query count, so
// the engine never blocks on a slow consumer.
func (s *Subscription) Results() <-chan Result { return s.ch }

// Subscribe enqueues a batch of queries like SubmitBatch but returns one
// multiplexed result stream instead of per-query Handles. Admission
// semantics (single routing pass, batch order, all-or-nothing on error)
// are identical to SubmitBatch; each query still resolves to exactly one
// terminal Result, delivered on Results. Returns ErrClosed after Close.
func (s *System) Subscribe(ctx context.Context, qs []*ir.Query) (*Subscription, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sub := &Subscription{ch: make(chan Result, len(qs))}
	sub.remaining.Store(int64(len(qs)))
	if len(qs) == 0 {
		close(sub.ch)
		return sub, nil
	}
	ehs, err := s.eng.SubmitBatch(qs)
	if err != nil {
		return nil, wrapSubmitErr(err)
	}
	// The callback runs on the delivering goroutine (or here, for results
	// delivered during admission); the buffered channel (one slot per query,
	// exactly one result per query) makes the send non-blocking by
	// construction.
	deliver := func(r engine.Result) {
		sub.ch <- Result{QueryID: r.QueryID, Status: r.Status, Answer: r.Answer, Detail: r.Detail}
		if sub.remaining.Add(-1) == 0 {
			close(sub.ch)
		}
	}
	sub.ids = make([]ir.QueryID, len(ehs))
	for i, eh := range ehs {
		sub.ids[i] = eh.ID
		eh.Notify(deliver)
	}
	return sub, nil
}
