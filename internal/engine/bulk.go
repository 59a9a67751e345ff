package engine

import (
	"entangle/internal/ir"
	"entangle/internal/match"
)

// BulkOptions tunes SubmitBulk.
type BulkOptions struct {
	// DeferFlush skips the coordination round SubmitBulk normally runs on
	// each touched shard after ingest: closed components stay pending until
	// the next Flush (explicit, FlushEvery-triggered, or Run's tick in
	// set-at-a-time mode — in Incremental mode Run does not flush, so a
	// deferred bulk needs an explicit Flush call). Useful for staged loads
	// that want several SubmitBulk calls to coordinate as one round.
	DeferFlush bool
}

// SubmitBulk enqueues many queries at once as an explicitly UNORDERED bulk
// load: the batch is treated as a set, the paper's native granularity — a
// coordination round needs the set of pending entangled queries, not the
// order they arrived. That weaker contract is what lets the bulk path skip
// the per-query incremental admission work SubmitBatch must keep paying to
// preserve one-at-a-time equivalence:
//
//   - one router pass resolves the whole batch (as SubmitBatch);
//   - each touched shard ingests its group under ONE lock acquisition with
//     atoms indexed and unifiability edges discovered set-at-a-time — no
//     per-query index probing for admission, no per-arrival closedness
//     probe, no mid-batch evaluation;
//   - the safety check runs once over the ingested set, reading the
//     discovered edges instead of probing the atom indexes per query;
//   - the component/closedness index is re-derived once per touched
//     component; and
//   - one flush per touched shard runs coordination over the resulting
//     closed components (skippable with BulkOptions.DeferFlush).
//
// Correctness contract: for a batch with no interleaved singles, the
// answered set and per-query results equal SubmitBatch on a set-at-a-time
// engine followed by one Flush — and on a set-at-a-time engine the two
// paths are observationally identical. On an Incremental engine the bulk
// itself still evaluates set-at-a-time (components that close mid-batch
// under SubmitBatch are instead coordinated whole at the end), which is the
// semantic difference callers opt into. Queries left open after the bulk
// flush wait like any others: staleness deadlines are honored from the
// SubmitBulk call, and handles deliver exactly one Result each.
func (e *Engine) SubmitBulk(qs []*ir.Query, opt BulkOptions) ([]*Handle, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	e.lifeMu.RLock()
	defer e.lifeMu.RUnlock()
	ps, err := e.admitArrivals(qs, "bulk")
	if err != nil {
		return nil, err
	}
	e.bulkLoads.Add(1)

	// Routing, regrouping and the merge-race retry are the shared
	// submitGrouped skeleton, which hands every group over in ascending
	// input (= ID) order — the order the safety sweep resolves conflicts
	// in, so a bulk's verdicts are reproducible however its groups land.
	// Each touched shard ingests its whole group, then the bulk's flush
	// rounds are snapshotted under the same lock hold and evaluated once it
	// is released: the flush is the last thing the bulk does on that shard.
	err = e.submitGrouped(ps, func(s *shard, group []*pendingQuery, rb *roundBatch) ([]*pendingQuery, error) {
		if err := s.bulkLoad(group); err != nil {
			return nil, err // unreachable: IDs are engine-assigned and fresh
		}
		if !opt.DeferFlush {
			e.flushRounds.Add(1)
			e.bulkFlushes.Add(1)
		} else if e.cfg.Mode == SetAtATime && e.cfg.FlushEvery > 0 && s.sinceFl >= e.cfg.FlushEvery {
			// A deferred bulk still honors the configured backlog bound,
			// exactly as migration-adopted queries do.
			e.flushRounds.Add(1)
		} else {
			return nil, nil
		}
		s.collectFlushRounds(rb)
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	return handlesOf(ps), nil
}

// postFeed identifies one postcondition slot of one query — the unit the
// safety sweep's head-side check counts feeders against.
type postFeed struct {
	q   ir.QueryID
	pos int
}

// bulkLoad ingests a group of bulk arrivals set-at-a-time, under the shard
// lock the caller holds. Each arrival keeps its own submission time:
// SubmitBulk stamps the call time, while crash recovery restores each
// pending query's ORIGINAL time so staleness deadlines survive a restart.
// One graph pass indexes every atom and discovers every unifiability edge
// (graph.BulkAdd), one safety sweep over the ingested set decides
// admission, and survivors are registered as pending.
// No per-query incremental evaluation runs; the component index re-derives
// each touched component once, at the flush (or probe) that follows.
func (s *shard) bulkLoad(ps []*pendingQuery) error {
	qs := make([]*ir.Query, len(ps))
	for i, p := range ps {
		qs[i] = p.renamed
	}
	if err := s.g.BulkAdd(qs); err != nil {
		return err
	}
	verdicts := s.sweepUnsafe(qs)
	for i, p := range ps {
		id := p.renamed.ID
		s.stats.Submitted++
		s.record(EventSubmitted, id, p.renamed.Owner)
		if err := verdicts[i]; err != nil {
			// Unsafe: withdraw the query's atoms and edges from the graph —
			// later sweeps and matching must see exactly the admitted set —
			// and deliver the rejection.
			s.g.RemoveQuery(id)
			s.stats.RejectedUnsafe++
			s.record(EventUnsafe, id, err.Error())
			s.eng.logUnsafe(id, err)
			p.handle.deliver(Result{QueryID: id, Status: StatusUnsafe, Detail: err.Error()})
			continue
		}
		s.checker.AdmitUnchecked(p.renamed)
		s.pending[id] = p
		s.eng.pendingGauge.Add(1)
		if s.eng.cfg.StaleAfter > 0 {
			s.stale.push(staleItem{at: p.submitted, id: id})
			s.compactStaleIfNeeded()
		}
		s.eng.router.addPending(p.rels[0], 1)
		if s.eng.cfg.Mode == SetAtATime {
			s.sinceFl++
		}
	}
	return nil
}

// sweepUnsafe runs the admission safety check (Section 3.1.1) once over a
// just-ingested bulk instead of once per query: every unifying (head,
// postcondition) pair is already a graph edge, so the sweep reads edges
// where incremental admission probes the atom indexes — zero index lookups.
// Verdicts are resolved in ascending ID order with each verdict feeding the
// later ones (a rejected query's atoms stop counting), which reproduces
// exactly what per-query admission of the same sequence would have decided:
// the post-side test counts admissible feeders of each of q's
// postconditions, and the head-side test counts the feeders q's own heads
// join, both restricted to residents and already-accepted bulk members.
// Returns one error per input (nil = admissible), aligned with qs.
func (s *shard) sweepUnsafe(qs []*ir.Query) []error {
	verdicts := make([]error, len(qs))
	inBulk := make(map[ir.QueryID]bool, len(qs))
	for _, q := range qs {
		inBulk[q.ID] = true
	}
	accepted := make(map[ir.QueryID]bool, len(qs))
	// admissible: a resident (admitted before this bulk), or a bulk member
	// already accepted by this sweep.
	admissible := func(id ir.QueryID) bool { return !inBulk[id] || accepted[id] }
	var postCnt []int // per-postcondition feeder counts, reused across queries
	for i, q := range qs {
		n := s.g.Node(q.ID)
		if cap(postCnt) < len(q.Posts) {
			postCnt = make([]int, len(q.Posts))
		}
		postCnt = postCnt[:len(q.Posts)]
		for j := range postCnt {
			postCnt[j] = 0
		}
		for _, e := range n.In {
			if admissible(e.From) {
				postCnt[e.Post.Pos]++
			}
		}
		for pos, c := range postCnt {
			if c > 1 {
				verdicts[i] = match.UnsafePostError(q.Posts[pos], q.ID, c)
				break
			}
		}
		if verdicts[i] == nil {
			// Walk q's out-edges in head order (BulkAdd discovers them in
			// exactly the probe order Check uses), accumulating q's own
			// contribution per target postcondition, so a query feeding one
			// postcondition twice is caught — and the verdict names the
			// head that crossed the threshold, byte-identical with Check's.
			var added map[postFeed]int
		headSide:
			for _, e := range n.Out {
				if !admissible(e.To) {
					continue
				}
				if added == nil {
					added = make(map[postFeed]int)
				}
				k := postFeed{e.To, e.Post.Pos}
				added[k]++
				existing := 0
				for _, e2 := range s.g.Node(e.To).In {
					if e2.Post.Pos == e.Post.Pos && e2.From != q.ID && admissible(e2.From) {
						existing++
					}
				}
				if existing+added[k] > 1 {
					verdicts[i] = match.UnsafeHeadError(e.Head.Atom, q.ID, e.Post.Atom, e.To)
					break headSide
				}
			}
		}
		if verdicts[i] == nil {
			accepted[q.ID] = true
		}
	}
	return verdicts
}
