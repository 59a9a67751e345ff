package engine

import (
	"sync"

	"entangle/internal/graph"
	"entangle/internal/ir"
	"entangle/internal/match"
)

// evalRound is one closed component moving through the out-of-lock
// coordination pipeline: snapshot under the shard lock, evaluate on the
// engine's persistent worker pool (or inline), re-acquire the lock, validate
// the snapshot against the live shard state, deliver. Rounds and their
// snapshots are pooled — a warm round costs no allocation beyond the answer
// tuples themselves.
type evalRound struct {
	snap     *graph.CompSnap
	seed     int64 // CHOOSE stream seed; 0 picks the first valuation
	answers  []ir.Answer
	rejected []match.Removal
	wg       *sync.WaitGroup // the dispatching batch; workers signal completion
}

var (
	roundPool = sync.Pool{New: func() any { return new(evalRound) }}
	snapPool  = sync.Pool{New: func() any { return new(graph.CompSnap) }}
)

// putRound recycles a settled round and its snapshot.
func putRound(r *evalRound) {
	snapPool.Put(r.snap)
	*r = evalRound{}
	roundPool.Put(r)
}

// roundBatch accumulates the rounds one lock hold produced. The common case
// — an incremental closing arrival — is exactly one round, held inline
// without allocating; a flush over many closed components spills into the
// slice. A batch is single-goroutine state; it is never shared.
type roundBatch struct {
	one  *evalRound
	many []*evalRound
}

func (rb *roundBatch) add(r *evalRound) {
	if rb.one == nil && len(rb.many) == 0 {
		rb.one = r
		return
	}
	if rb.one != nil {
		rb.many = append(rb.many, rb.one)
		rb.one = nil
	}
	rb.many = append(rb.many, r)
}

func (rb *roundBatch) empty() bool { return rb.one == nil && len(rb.many) == 0 }

// covers reports whether id is a member of any round already in the batch —
// the dedupe that keeps re-capture loops from snapshotting one component
// once per member.
func (rb *roundBatch) covers(id ir.QueryID) bool {
	if rb.one != nil {
		if _, ok := rb.one.snap.ByID()[id]; ok {
			return true
		}
	}
	for _, r := range rb.many {
		if _, ok := r.snap.ByID()[id]; ok {
			return true
		}
	}
	return false
}

// processRounds drives a batch of snapshotted rounds to completion:
// evaluate out of lock, then re-acquire the shard lock to validate and
// deliver. A single round (the incremental closing arrival) evaluates
// inline on the calling goroutine — no handoff, pooled scratch; a
// multi-round batch (an explicit or backlog-triggered flush) fans out to
// the persistent worker pool, which is fed by every shard of the engine, so
// concurrent flushes pipeline instead of queueing behind one shard's lock.
// Rounds invalidated by a concurrent mutation are re-snapshotted under the
// lock and looped until none remain; a freshly captured retry reflects
// post-mutation component shapes, so the loop only re-runs components that
// genuinely changed and terminates once the shard quiesces (or its pending
// set empties). Caller holds e.lifeMu (read) and no shard locks.
func (e *Engine) processRounds(s *shard, rb *roundBatch) {
	for !rb.empty() {
		if rb.one != nil {
			e.evalRoundOn(rb.one, nil)
		} else {
			e.dispatch(rb.many)
		}
		var retry roundBatch
		s.mu.Lock()
		if rb.one != nil {
			s.settleRound(rb.one, &retry)
		} else {
			for _, r := range rb.many {
				s.settleRound(r, &retry)
			}
		}
		s.mu.Unlock()
		*rb = retry
	}
}

// dispatch fans rounds out to the worker pool and waits for all of them. A
// full queue never parks the dispatcher: it evaluates the round itself,
// which bounds queue latency and keeps the engine live even if every worker
// is busy with other shards' rounds.
func (e *Engine) dispatch(rounds []*evalRound) {
	e.startWorkers()
	var wg sync.WaitGroup
	wg.Add(len(rounds))
	for _, r := range rounds {
		r.wg = &wg
		select {
		case e.evalQueue <- r:
		default:
			e.evalRoundOn(r, nil)
			wg.Done()
		}
	}
	wg.Wait()
}

// startWorkers launches the engine's persistent evaluation workers on first
// use. Lazy start keeps purely incremental workloads (which evaluate single
// rounds inline) from paying for idle goroutines. Callers hold e.lifeMu
// (read), so startup cannot race Close's queue shutdown.
func (e *Engine) startWorkers() {
	e.poolOnce.Do(func() {
		for i := 0; i < e.poolSize; i++ {
			go e.evalWorker()
		}
		e.workersUp.Store(true)
	})
}

// evalWorker is one persistent pool worker: it owns a pinned evaluation
// scratch (dense matcher state plus compiled-plan buffers) for its whole
// lifetime, so steady-state component evaluation allocates nothing no
// matter how rounds interleave across shards. Exits when Close drains the
// engine and closes the queue.
func (e *Engine) evalWorker() {
	sc := match.NewScratch()
	for r := range e.evalQueue {
		e.evalRoundOn(r, sc)
		r.wg.Done()
	}
}

// evalRoundOn evaluates one round's snapshot, leaving answers and
// rejections on the round for settling. sc pins the evaluation scratch (nil
// falls back to the package pools). Runs out of lock.
//
// An evaluation error rejects the whole component with CauseEvalError
// carrying the error text — distinct from CauseNoData, so operators can
// tell a broken evaluation from a legitimately unmatched workload.
func (e *Engine) evalRoundOn(r *evalRound, sc *match.Scratch) {
	members := r.snap.Members()
	if e.testEvalHook != nil {
		e.testEvalHook(members)
	}
	ans, rej, err := match.EvaluateComponentFastWith(sc, e.db, r.snap, members, r.snap.ByID(), r.seed, e.cfg.Match)
	if err != nil {
		detail := err.Error()
		rej = make([]match.Removal, 0, len(members))
		for _, id := range members {
			rej = append(rej, match.Removal{Query: id, Cause: match.CauseEvalError, Detail: detail})
		}
		ans = nil
	}
	r.answers, r.rejected = ans, rej
}
