package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"entangle"
	"entangle/internal/ir"
	"entangle/internal/workload"
)

// groups_setatatime: a closed loop in process through
// entangle.System.Submit with pre-built queries (no wire, no parsing) in
// set-at-a-time mode, over a standing backlog of never-closing chains
// (Fig. 8) loaded during set-up. Two submitters share the members of each
// group; the mix is two-way random pairs, three-way cycles and 4- and
// 5-cliques (Fig. 6 and 7 shapes). perf/README.md gives the source of each
// setting.
const (
	groupsInFlight   = 16                    // closed-loop window: the measured knee (README)
	groupsFlushEvery = 8                     // per-shard FlushEvery, as in the flushpar experiment
	groupsTick       = 20 * time.Millisecond // Run tick: family retirement keeps up (README)
	groupsBacklog    = 20000                 // never-closing chain queries
	groupsChainLen   = 16                    // d3cbench's Fig. 8 chain length
	groupsWarm       = 300                   // warm-up groups per set-up
)

// groupMix weighs each group shape by the inverse of its size, so every
// shape contributes the same number of queries, as each of the paper's
// Fig. 6 and 7 experiments runs its shape at the same query count.
var groupMix = []struct {
	kind string
	size int
}{{"pair", 2}, {"cycle3", 3}, {"clique4", 4}, {"clique5", 5}}

// groupFactory draws groups from pools of friend pairs, triangles and
// cliques sampled once over the substrate. Safe for concurrent use.
type groupFactory struct {
	mu     sync.Mutex
	gen    *workload.Gen
	rng    *rand.Rand
	pairs  [][2]int
	tris   [][3]int
	c4, c5 [][]int
	next   int
	counts map[string]int
}

func newGroupFactory(g *workload.Graph, seed int64) (*groupFactory, error) {
	gen := workload.NewGen(g, seed)
	gen.DistinctRels = true
	f := &groupFactory{gen: gen, rng: rand.New(rand.NewSource(seed)), next: 1, counts: make(map[string]int)}
	f.pairs = g.FriendPairs(20000, f.rng.Int63())
	f.tris = g.Triangles(10000, f.rng.Int63())
	f.c4 = g.Cliques(3000, 4, f.rng.Int63())
	f.c5 = g.Cliques(3000, 5, f.rng.Int63())
	if len(f.pairs) == 0 || len(f.tris) == 0 || len(f.c4) == 0 || len(f.c5) == 0 {
		return nil, fmt.Errorf("groups: empty pool (pairs %d, triangles %d, 4-cliques %d, 5-cliques %d)", len(f.pairs), len(f.tris), len(f.c4), len(f.c5))
	}
	return f, nil
}

// backlog returns the never-closing chains.
func (f *groupFactory) backlog() []*ir.Query {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gen.Chains(groupsBacklog, groupsChainLen)
}

// group draws the next group.
func (f *groupFactory) group() *Group {
	f.mu.Lock()
	defer f.mu.Unlock()
	kind := pickShape(f.rng.Float64())
	f.counts[kind]++
	var qs []*ir.Query
	switch kind {
	case "pair":
		qs = f.gen.TwoWayRandom([][2]int{f.pairs[f.rng.Intn(len(f.pairs))]})
	case "cycle3":
		qs = f.gen.ThreeWay([][3]int{f.tris[f.rng.Intn(len(f.tris))]})
	case "clique4":
		qs = f.gen.Clique([][]int{f.c4[f.rng.Intn(len(f.c4))]})
	default:
		qs = f.gen.Clique([][]int{f.c5[f.rng.Intn(len(f.c5))]})
	}
	return groupsOf(qs, len(qs), &f.next)[0]
}

// pickShape maps u in [0,1) to a shape of groupMix, each drawn with
// probability proportional to 1/size.
func pickShape(u float64) string {
	total := 0.0
	for _, m := range groupMix {
		total += 1 / float64(m.size)
	}
	u *= total
	for _, m := range groupMix {
		if u < 1/float64(m.size) {
			return m.kind
		}
		u -= 1 / float64(m.size)
	}
	return groupMix[len(groupMix)-1].kind
}

// closedLoop keeps a window of groups in flight: each group's members go
// alternately to two submitter goroutines, and each settled group starts
// the next one until the phase's deadline.
type closedLoop struct {
	sys     *entangle.System
	f       *groupFactory
	c       *collector
	until   time.Duration
	budget  int // groups to start at most (0 = until the deadline)
	started int
	phase   int
	gens    int // submitter goroutines
	subs    []chan work
	after   func(*Group, bool, time.Duration) // cl.onOutcome, bound once
	mu      sync.Mutex
	groups  []*Group
	running sync.WaitGroup // groups not yet settled
}

type work struct {
	g *Group
	m *Member
}

func (cl *closedLoop) start() {
	cl.mu.Lock()
	if cl.budget > 0 && cl.started >= cl.budget {
		cl.mu.Unlock()
		return
	}
	cl.started++
	cl.mu.Unlock()
	g := cl.f.group()
	g.Phase = cl.phase
	if cl.c.tr != nil {
		g.Span = cl.c.tr.Reserve()
	}
	cl.mu.Lock()
	cl.groups = append(cl.groups, g)
	cl.mu.Unlock()
	cl.running.Add(1)
	for i, m := range g.Members {
		cl.subs[i%len(cl.subs)] <- work{g, m}
	}
}

// submitter admits members one at a time (a closed loop on Submit).
func (cl *closedLoop) submitter(ch <-chan work) {
	for w := range ch {
		g, m := w.g, w.m
		t0 := cl.c.now()
		cl.c.begin(g, m, t0)
		h, err := cl.sys.Submit(context.Background(), m.Q)
		t1 := cl.c.now()
		if err != nil {
			cl.c.failed(g, m, err)
			cl.settled(g, t1)
			continue
		}
		g.acked(m, h.ID(), t1)
		if cl.c.tr != nil {
			cl.c.tr.Add("engine.submit", g.Span, int64(h.ID()), cl.c.trStart+t0, cl.c.trStart+t1)
		}
		go cl.c.awaitResult(g, m, h.ID(), h, cl.after)
	}
}

// onOutcome runs after each recorded outcome; the group's last one
// settles it.
func (cl *closedLoop) onOutcome(g *Group, last bool, at time.Duration) {
	if last {
		cl.settled(g, at)
	}
}

// settled retires a group from the window and starts the next one while
// the phase lasts.
func (cl *closedLoop) settled(g *Group, at time.Duration) {
	g.mu.Lock()
	done := g.left == 0
	g.mu.Unlock()
	if !done {
		return
	}
	if at < cl.until {
		cl.start()
	}
	cl.running.Done()
}

// run drives the loop for d and returns its groups once all settled.
func (cl *closedLoop) run(d time.Duration) []*Group {
	cl.after = cl.onOutcome
	cl.until = cl.c.now() + d
	// Each submitter's queue holds every member the window can have in
	// flight, so starting a group never blocks a settling one.
	for i := 0; i < cl.gens; i++ {
		cl.subs = append(cl.subs, make(chan work, groupsInFlight*5))
	}
	var subWG sync.WaitGroup
	for _, ch := range cl.subs {
		subWG.Add(1)
		go func(ch chan work) {
			defer subWG.Done()
			liveGens.add(1)
			defer liveGens.add(-1)
			cl.submitter(ch)
		}(ch)
	}
	for i := 0; i < groupsInFlight; i++ {
		cl.start()
	}
	// The waiter outlives run only when the phase is aborted.
	done := make(chan struct{})
	go func() {
		cl.running.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d + drainTimeout):
		// Unsettled members stay without an outcome and fail the check.
	}
	for _, ch := range cl.subs {
		close(ch)
	}
	subWG.Wait()
	cl.c.drain(0)
	return cl.groups
}

// groupsEnv is one set-up of the workload: the system with its Run loop
// and the backlog's handles.
type groupsEnv struct {
	sys     *entangle.System
	cancel  context.CancelFunc
	runDone chan struct{}
	backlog []*entangle.Handle
}

func (e *groupsEnv) Close() {
	e.cancel()
	<-e.runDone
	e.sys.Close()
}

func runGroupsSetAtATime(cfg runConfig, rep *Report) error {
	g := newGraph()
	oracle := NewOracle(hometowns(g))
	f, err := newGroupFactory(g, cfg.Seed)
	if err != nil {
		return err
	}
	backlog := f.backlog()
	var all []*Group

	env, setup, err := timeSetups(setupRepeats, func(i int) (*groupsEnv, error) {
		sys, err := entangle.Open(
			entangle.WithMode(entangle.SetAtATime),
			entangle.WithShards(2),
			entangle.WithFlushEvery(groupsFlushEvery),
			entangle.WithFlushInterval(groupsTick),
			entangle.WithSeed(cfg.Seed),
		)
		if err != nil {
			return nil, err
		}
		if err := workload.PopulateDB(sys.DB(), newGraph()); err != nil {
			sys.Close()
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		env := &groupsEnv{sys: sys, cancel: cancel, runDone: make(chan struct{})}
		go func() {
			sys.Run(ctx)
			close(env.runDone)
		}()
		for start := 0; start < len(backlog); start += 1000 {
			hs, err := sys.SubmitBatch(ctx, backlog[start:min(start+1000, len(backlog))])
			if err != nil {
				env.Close()
				return nil, fmt.Errorf("backlog: %w", err)
			}
			env.backlog = append(env.backlog, hs...)
		}
		cl := &closedLoop{sys: sys, f: f, c: newCollector(nil), gens: cfg.Gens, phase: phaseWarm, budget: groupsWarm}
		all = append(all, cl.run(time.Hour)...)
		return env, nil
	})
	if err != nil {
		return err
	}
	rep.Set("setup_s", setup)
	rep.Meta("substrate_users", workload.SlashdotUsers)
	rep.Meta("offered_qps", "closed loop")
	rep.Meta("groups_in_flight", groupsInFlight)
	rep.Meta("partner_gap", "-")
	rep.Meta("batch_size", "-")
	rep.Meta("data_dir_fs", "-")
	rep.Meta("mode", fmt.Sprintf("set-at-a-time, 2 shards, FlushEvery %d per shard, Run tick %v, backlog %d chain queries", groupsFlushEvery, groupsTick, len(backlog)))

	measure := func(d time.Duration, tr *Tracer) *phase {
		stop := make(chan struct{})
		qd := sampleQueueDepth(env.sys, stop, tr != nil)
		a := snapPhase(env.sys, nil, true)
		cl := &closedLoop{sys: env.sys, f: f, c: newCollector(tr), gens: cfg.Gens, phase: phaseMeasure}
		gs := cl.run(d)
		b := snapPhase(env.sys, nil, false)
		close(stop)
		p := &phase{groups: gs, span: b.at.Sub(a.at)}
		p.finish(a, b)
		p.qdepth = <-qd
		return p
	}

	span := time.Duration(cfg.Seconds * float64(time.Second))
	var pa, pb *phase
	var tr *Tracer
	if cfg.Trace {
		pa = measure(span/2, nil)
		tr = NewTracer()
		pb = measure(span/2, tr)
		all = append(all, pa.groups...)
		all = append(all, pb.groups...)
	} else {
		pa = measure(span, nil)
		all = append(all, pa.groups...)
	}
	rep.Meta("group_mix", fmt.Sprint(f.counts))
	n, fs := checkGroups(oracle, all)
	if !cfg.Trace {
		setEndToEnd(rep, pa)
		all, pa.groups = nil, nil
		setLiveHeap(rep)
	}

	// Closing the system fails the backlog stale, which the oracle expects
	// of chains that never close.
	env.Close()
	for _, h := range env.backlog {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		r, err := h.Wait(ctx)
		cancel()
		if err != nil || r.Status != entangle.StatusStale {
			fs = append(fs, Failure{Group: -1, Query: h.ID(), Phase: phaseWarm, Reason: fmt.Sprintf("backlog chain query: status %v (%v), oracle says stale", r.Status, err)})
		}
	}
	rep.Attempt(n+len(env.backlog), fs)
	markCorrect(rep)
	if !cfg.Trace {
		return nil
	}
	setOverhead(rep, pa, pb)
	setCounterLayers(rep, pb, len(pb.groups))
	setDirectSubmits(rep, pb.groups)
	idx, order := groupIndex(pb.groups)
	r := &replay{db: env.sys.DB(), tr: tr, order: order, groupOf: idx, backlog: backlog}
	if err := r.run(rep); err != nil {
		return err
	}
	return finishTrace(cfg, rep, tr)
}

// setDirectSubmits records Engine.Submit service times from the measured
// calls themselves: in each group, the member whose call started last is
// the closing arrival.
func setDirectSubmits(rep *Report, groups []*Group) {
	var open, closing []float64
	for _, g := range groups {
		members := append([]*Member(nil), g.Members...)
		sort.SliceStable(members, func(i, j int) bool { return members[i].Due < members[j].Due })
		for i, m := range members {
			if !m.Sent || m.SubErr != "" {
				continue
			}
			if i == len(members)-1 {
				closing = append(closing, us(m.Acked-m.Due))
			} else {
				open = append(open, us(m.Acked-m.Due))
			}
		}
	}
	rep.Set("engine.submit_open_us_p50", percentile(open, 50))
	rep.Set("engine.submit_open_us_p99", percentile(open, 99))
	rep.Set("engine.submit_closing_us_p50", percentile(closing, 50))
	rep.Set("engine.submit_closing_us_p99", percentile(closing, 99))
}
