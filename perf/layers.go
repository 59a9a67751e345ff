package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"entangle"
	"entangle/internal/engine"
	"entangle/internal/graph"
	"entangle/internal/ir"
	"entangle/internal/match"
	"entangle/internal/memdb"
)

// phaseSnap samples every counter a phase is attributed from.
type phaseSnap struct {
	at       time.Time
	proc     procSnap
	stats    entangle.Stats
	srv, cli wireSnap
}

// snapPhase samples the counters. Before a phase starts, pass gc to
// collect first, so every phase starts from the same heap state and the
// number of collections inside it depends on its own allocation only.
func snapPhase(sys *entangle.System, w *wireEnv, gc bool) phaseSnap {
	if gc {
		runtime.GC()
	}
	s := phaseSnap{at: time.Now(), proc: sampleProc(), stats: sys.Stats()}
	if w != nil {
		s.srv, s.cli = w.srvWire.snap(), w.cliWire.snap()
	}
	return s
}

// phase is one measured interval: its groups, its generator lateness, and
// the counter deltas between its start and end snapshots.
type phase struct {
	groups []*Group
	late   []time.Duration
	span   time.Duration // schedule length (open loop) or run length (closed loop)
	proc   procDelta
	stats  entangle.Stats // counter deltas (gauges hold end values)
	srv    wireSnap
	cli    wireSnap
	qdepth int       // largest sampled eval queue depth
	rtt    []float64 // client request round trips, µs
}

// sent returns how many queries the phase submitted.
func (p *phase) sent() int {
	n := 0
	for _, g := range p.groups {
		for _, m := range g.Members {
			if m.Sent {
				n++
			}
		}
	}
	return n
}

// finish fills the phase's deltas from its two snapshots.
func (p *phase) finish(a, b phaseSnap) {
	p.proc = b.proc.since(a.proc)
	p.srv, p.cli = b.srv.sub(a.srv), b.cli.sub(a.cli)
	s, t := b.stats, a.stats
	p.stats = entangle.Stats{
		Submitted: s.Submitted - t.Submitted, Answered: s.Answered - t.Answered,
		Rejected: s.Rejected - t.Rejected, RejectedUnsafe: s.RejectedUnsafe - t.RejectedUnsafe,
		ExpiredStale: s.ExpiredStale - t.ExpiredStale, Pending: s.Pending,
		Flushes: s.Flushes - t.Flushes, Evaluations: s.Evaluations - t.Evaluations,
		RouterPasses: s.RouterPasses - t.RouterPasses, SubmitLocks: s.SubmitLocks - t.SubmitLocks,
		FamiliesRetired: s.FamiliesRetired - t.FamiliesRetired,
		PlanHits:        s.PlanHits - t.PlanHits, PlanMisses: s.PlanMisses - t.PlanMisses,
		EvalRetries: s.EvalRetries - t.EvalRetries,
	}
	if s.WAL != nil && t.WAL != nil {
		p.stats.WAL = &engine.WALStats{
			Records: s.WAL.Records - t.WAL.Records,
			Bytes:   s.WAL.Bytes - t.WAL.Bytes,
			Fsyncs:  s.WAL.Fsyncs - t.WAL.Fsyncs,
		}
	}
}

// sampleQueueDepth polls the engine's eval queue depth until stop closes
// and returns the largest value seen. Stats takes every shard lock, so only
// traced phases poll; an untraced one reports 0.
func sampleQueueDepth(sys *entangle.System, stop <-chan struct{}, traced bool) <-chan int {
	out := make(chan int, 1)
	if !traced {
		out <- 0
		return out
	}
	go func() {
		best := 0
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				out <- best
				return
			case <-t.C:
				best = max(best, sys.Stats().EvalQueueDepth)
			}
		}
	}()
	return out
}

// setEndToEnd records the user-visible metrics of a measured phase but
// heap_live_mb (see setLiveHeap). goodput counts queries the oracle check
// passed (run checkGroups first).
func setEndToEnd(rep *Report, p *phase) {
	l := collectLatencies(p.groups)
	rep.Set("coord_p50_ms", percentile(l.coord, 50))
	rep.Set("coord_p99_ms", percentile(l.coord, 99))
	rep.Set("ack_p50_ms", percentile(l.ack, 50))
	rep.Set("ack_p99_ms", percentile(l.ack, 99))
	n := float64(p.sent())
	good, last := goodQueries(p.groups)
	rep.Set("goodput_qps", float64(good)/last.Seconds())
	rep.Note("goodput per second: %v", goodPerSecond(p.groups))
	rep.Set("cpu_us_per_query", us(p.proc.CPU)/n)
	rep.Set("allocs_per_query", float64(p.proc.Allocs)/n)
	rep.Set("alloc_kb_per_query", float64(p.proc.AllocBytes)/1024/n)
	rep.Note("gc cycles in phase: %d, gc cpu share %.3f", p.proc.GCCycles, p.proc.GCCPUFrac)
	for _, s := range []struct {
		name string
		xs   []float64
	}{{"coord", l.coord}, {"ack", l.ack}} {
		if top := topPercentile(len(s.xs)); top > 0 {
			rep.Note("%s samples=%d, top supported percentile p%g = %.3f ms", s.name, len(s.xs), top, percentile(s.xs, top))
		}
	}
}

// setLiveHeap records heap_live_mb once the benchmark has dropped its own
// per-query records, so the figure is the system's live heap (plus the
// benchmark's fixed-size state) and does not grow with throughput.
func setLiveHeap(rep *Report) {
	rep.Set("heap_live_mb", liveHeapMB())
}

// setCounterLayers records the per-layer metrics read from counters over a
// traced phase: wire wrappers, engine Stats deltas, runtime/metrics and the
// generator clock.
func setCounterLayers(rep *Report, p *phase, groupsEvaluated int) {
	n := float64(p.sent())
	rep.Set("server.writes_per_query", float64(p.srv.Writes)/n)
	rep.Set("server.write_us_per_query", float64(p.srv.WriteNS)/1e3/n)
	rep.Set("server.bytes_out_per_query", float64(p.srv.BytesOut)/n)
	rep.Set("server.bytes_in_per_query", float64(p.srv.BytesIn)/n)
	rep.Set("client.writes_per_query", float64(p.cli.Writes)/n)
	rep.Set("client.submit_rtt_us_p50", percentile(p.rtt, 50))
	rep.Set("client.submit_rtt_us_p99", percentile(p.rtt, 99))
	st := p.stats
	rep.Set("engine.router_passes_per_query", float64(st.RouterPasses)/n)
	rep.Set("engine.submit_locks_per_query", float64(st.SubmitLocks)/n)
	rep.Set("engine.evals_per_group", ratio(float64(st.Evaluations), float64(groupsEvaluated)))
	rep.Set("engine.eval_retries_per_eval", ratio(float64(st.EvalRetries), float64(st.Evaluations)))
	rep.Set("engine.eval_queue_depth_max", float64(p.qdepth))
	rep.Set("engine.flushes_per_kquery", float64(st.Flushes)*1000/n)
	rep.Set("engine.stale_frac", ratio(float64(st.ExpiredStale), float64(st.Submitted)))
	rep.Set("engine.families_retired_per_kquery", float64(st.FamiliesRetired)*1000/n)
	rep.Set("memdb.plan_hit_ratio", ratio(float64(st.PlanHits), float64(st.PlanHits+st.PlanMisses)))
	var rec, bytes, fsyncs float64
	if st.WAL != nil {
		rec, bytes, fsyncs = float64(st.WAL.Records), float64(st.WAL.Bytes), float64(st.WAL.Fsyncs)
	}
	rep.Set("wal.records_per_query", rec/n)
	rep.Set("wal.bytes_per_query", bytes/n)
	rep.Set("wal.fsyncs_per_kquery", fsyncs*1000/n)
	rep.Set("runtime.gc_cpu_frac", p.proc.GCCPUFrac)
	rep.Set("runtime.gc_cycles_per_kquery", float64(p.proc.GCCycles)*1000/n)
	rep.Set("runtime.gc_pause_p99_us", us(p.proc.PauseP99))
	lateMS := make([]float64, len(p.late))
	for i, d := range p.late {
		lateMS[i] = ms(d)
	}
	rep.Set("loadgen.late_p99_ms", percentile(lateMS, 99))
	rep.Set("loadgen.offered_qps", n/p.span.Seconds())
}

// setOverhead records trace.overhead_frac: how much more CPU per query the
// traced half cost than the untraced half of the same run.
func setOverhead(rep *Report, untraced, traced *phase) {
	a := us(untraced.proc.CPU) / float64(untraced.sent())
	b := us(traced.proc.CPU) / float64(traced.sent())
	rep.Set("trace.overhead_frac", ratio(b-a, a))
	rep.Note("trace overhead: cpu/query untraced %.2fµs, traced %.2fµs", a, b)
}

// replay feeds a traced phase's own inputs, in submission order, to each
// layer's public functions in process, one span per call parented to the
// call's group span, and records the per-layer service times. Layers the
// workload does not use are recorded as zero.
type replay struct {
	db      *memdb.DB
	tr      *Tracer
	order   []*Member          // submission order
	groupOf map[*Member]*Group // member → its group
	backlog []*ir.Query        // standing pending population for the safety checker
	sql     bool               // texts are entangled SQL
	irText  bool               // texts are IR
	batches [][]*Member        // submit_batch requests, in order
	loads   []string           // load scripts, in order
	submits bool               // replay Engine.Submit (workloads without direct spans)
}

// replayCap bounds how many inputs each replay feeds.
const replayCap = 3000

func allocCount() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timed runs fn as one span and returns its duration.
func (r *replay) timed(name string, parent, req int64, fn func()) time.Duration {
	t0 := r.tr.Now()
	fn()
	t1 := r.tr.Now()
	r.tr.Add(name, parent, req, t0, t1)
	return t1 - t0
}

func (r *replay) parent(m *Member) int64 { return r.groupOf[m].Span }

func (r *replay) run(rep *Report) error {
	order := r.order
	if len(order) > replayCap {
		order = order[:replayCap]
	}
	zero := func(names ...string) {
		for _, n := range names {
			rep.Set(n, 0)
		}
	}

	// Front ends: eqsql (through Engine.ParseSQL) or ir.Parse.
	eng := engine.New(r.db, engine.Config{Mode: engine.Incremental, Shards: 2})
	defer eng.Close()
	if r.sql {
		// Allocations come from an untimed pass, so span bookkeeping is
		// not counted; times from a second, traced pass.
		a0 := allocCount()
		for _, m := range order {
			if _, err := eng.ParseSQL(m.Text); err != nil {
				return err
			}
		}
		rep.Set("eqsql.allocs_per_stmt", float64(allocCount()-a0)/float64(len(order)))
		var durs []float64
		for _, m := range order {
			d := r.timed("eqsql.parse", r.parent(m), int64(m.ID), func() { _, _ = eng.ParseSQL(m.Text) })
			durs = append(durs, us(d))
		}
		rep.Set("eqsql.parse_us_p50", percentile(durs, 50))
	} else {
		zero("eqsql.allocs_per_stmt", "eqsql.parse_us_p50")
	}
	if r.irText {
		a0 := allocCount()
		for _, m := range order {
			if _, err := ir.Parse(0, m.Text); err != nil {
				return err
			}
		}
		rep.Set("ir.allocs_per_query", float64(allocCount()-a0)/float64(len(order)))
		var total time.Duration
		for _, m := range order {
			total += r.timed("ir.parse", r.parent(m), int64(m.ID), func() { _, _ = ir.Parse(0, m.Text) })
		}
		rep.Set("ir.parse_us_per_query", us(total)/float64(len(order)))
	} else {
		zero("ir.allocs_per_query", "ir.parse_us_per_query")
	}

	// Admission: Engine.Submit in submission order, split by whether the
	// arrival closes its group.
	if r.submits {
		remaining := make(map[*Group]int)
		for _, m := range order {
			remaining[r.groupOf[m]]++
		}
		var open, closing []float64
		for _, m := range order {
			g := r.groupOf[m]
			remaining[g]--
			var err error
			d := r.timed("engine.submit", r.parent(m), int64(m.ID), func() { _, err = eng.Submit(m.Q) })
			if err != nil {
				return err
			}
			if remaining[g] == 0 && g.Drop == 0 {
				closing = append(closing, us(d))
			} else {
				open = append(open, us(d))
			}
		}
		rep.Set("engine.submit_open_us_p50", percentile(open, 50))
		rep.Set("engine.submit_open_us_p99", percentile(open, 99))
		rep.Set("engine.submit_closing_us_p50", percentile(closing, 50))
		rep.Set("engine.submit_closing_us_p99", percentile(closing, 99))
	}
	if len(r.batches) > 0 {
		beng := engine.New(r.db, engine.Config{Mode: engine.Incremental, Shards: 2})
		var total time.Duration
		n := 0
		for _, b := range r.batches {
			qs := make([]*ir.Query, len(b))
			for i, m := range b {
				qs[i] = m.Q
			}
			var err error
			total += r.timed("engine.submit_batch", 0, int64(len(b)), func() { _, err = beng.SubmitBatch(qs) })
			if err != nil {
				beng.Close()
				return err
			}
			n += len(b)
			if n >= replayCap {
				break
			}
		}
		beng.Close()
		rep.Set("engine.batch_us_per_query", us(total)/float64(n))
	} else {
		zero("engine.batch_us_per_query")
	}

	// Matching and evaluation, one group at a time, on renamed-apart copies
	// as the engine holds them.
	var build, mat, comb, comp, exec time.Duration
	groups, evals := 0, 0
	seen := make(map[*Group]bool)
	nextID := ir.QueryID(1)
	st := &memdb.ExecState{}
	for _, m := range order {
		g := r.groupOf[m]
		if seen[g] || g.Drop > 0 {
			continue
		}
		seen[g] = true
		parent := g.Span
		qs := make([]*ir.Query, len(g.Members))
		byID := make(map[ir.QueryID]*ir.Query, len(g.Members))
		ids := make([]ir.QueryID, len(g.Members))
		for i, mm := range g.Members {
			qs[i] = mm.Q.RenamedCopy(nextID)
			byID[nextID], ids[i] = qs[i], nextID
			nextID++
		}
		var gr *graph.Graph
		var err error
		build += r.timed("graph.build", parent, int64(g.ID), func() { gr, err = graph.Build(qs) })
		if err != nil {
			return err
		}
		var res *match.MatchResult
		mat += r.timed("match.match", parent, int64(g.ID), func() { res = match.MatchComponent(gr, ids, match.Options{}) })
		var cq *ir.CombinedQuery
		comb += r.timed("match.combine", parent, int64(g.ID), func() {
			c, u, cerr := match.BuildCombined(byID, res)
			if cerr == nil {
				cq = match.Simplify(c, u)
			}
		})
		groups++
		if cq == nil {
			continue
		}
		var p *memdb.Plan
		comp += r.timed("memdb.compile", parent, int64(g.ID), func() { p = r.db.CompilePlan(cq.Body, nil) })
		exec += r.timed("memdb.exec", parent, int64(g.ID), func() { _, err = r.db.ExecPlan(p, st, memdb.EvalOptions{Limit: 1}) })
		if err != nil {
			return err
		}
		evals++
	}
	rep.Set("graph.build_us_per_group", us(build)/float64(max(groups, 1)))
	rep.Set("match.match_us_per_group", us(mat)/float64(max(groups, 1)))
	rep.Set("match.combine_us_per_group", us(comb)/float64(max(groups, 1)))
	rep.Set("memdb.compile_us_per_eval", us(comp)/float64(max(evals, 1)))
	rep.Set("memdb.exec_us_per_eval", us(exec)/float64(max(evals, 1)))

	// Safety: a checker holding the standing backlog checks each arrival.
	chk := match.NewSafetyChecker()
	for _, q := range r.backlog {
		chk.AdmitUnchecked(q.RenamedCopy(nextID))
		nextID++
	}
	var safety time.Duration
	for _, m := range order {
		q := m.Q.RenamedCopy(nextID)
		nextID++
		safety += r.timed("match.safety", r.parent(m), int64(m.ID), func() { _ = chk.Check(q) })
	}
	rep.Set("match.safety_us_per_query", us(safety)/float64(len(order)))

	// Loads: the workload's own scripts through DB.ExecScript.
	if len(r.loads) > 0 {
		var total time.Duration
		stmts := 0
		for _, s := range r.loads {
			var err error
			total += r.timed("memdb.exec_script", 0, 0, func() { err = r.db.ExecScript(s) })
			if err != nil {
				return err
			}
			stmts += strings.Count(s, ";")
		}
		rep.Set("memdb.load_us_per_stmt", us(total)/float64(max(stmts, 1)))
	} else {
		zero("memdb.load_us_per_stmt")
	}
	return nil
}

// noteWaiting reports how much of a client request's round trip the
// replayed layers account for; the remainder is the wire, queueing and
// scheduling. perRequest is the queries one request carries.
func noteWaiting(rep *Report, service float64, perRequest int) {
	rtt := rep.metrics["client.submit_rtt_us_p50"]
	rep.Note("attribution: client request round trip p50 %.1fµs for %d queries; replayed service %.1fµs; wire, queueing and scheduling %.1fµs",
		rtt, perRequest, service, rtt-service)
}

// groupIndex maps each member to its group and lists members in the order
// their submissions started.
func groupIndex(groups []*Group) (map[*Member]*Group, []*Member) {
	idx := make(map[*Member]*Group)
	var order []*Member
	for _, g := range groups {
		for _, m := range g.Members {
			idx[m] = g
			if m.Sent {
				order = append(order, m)
			}
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].Due < order[j].Due })
	return idx, order
}

func goodPerSecond(groups []*Group) []int {
	var out []int
	for _, g := range groups {
		for _, m := range g.Members {
			if m.Sent && !m.Bad && (m.Status == "answered" || m.Status == "rejected") {
				s := int(m.Done / time.Second)
				for len(out) <= s {
					out = append(out, 0)
				}
				out[s]++
			}
		}
	}
	return out
}
