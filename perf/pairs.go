package main

import (
	"fmt"
	"math/rand"
	"time"

	"entangle"
	"entangle/internal/workload"
)

// pairs_wire: the Fig. 6 random-workload pair (variable partner, F⋈U⋈U)
// sent as entangled SQL over a loopback d3cd in incremental mode, as an
// open loop with Poisson pair arrivals. Each partner follows its pair's
// first member after a seeded gap, on the other connection, so a few
// hundred open members are always pending.
const (
	pairsRate   = 2000.0 // offered queries per second
	pairsGapMin = 100 * time.Millisecond
	pairsGapMax = 300 * time.Millisecond
	pairsWarm   = 300 // warm-up pairs per set-up
)

// pairInputs draws friend pairs over the substrate and renders their
// queries as SQL.
type pairInputs struct {
	g    *workload.Graph
	gen  *workload.Gen
	rng  *rand.Rand
	next int
}

func newPairInputs(g *workload.Graph, seed int64) *pairInputs {
	gen := workload.NewGen(g, seed)
	gen.DistinctRels = true
	return &pairInputs{g: g, gen: gen, rng: rand.New(rand.NewSource(seed)), next: 1}
}

// schedule draws Poisson pair arrivals over span and returns the groups
// and one due-ordered event list per connection.
func (in *pairInputs) schedule(span time.Duration, conns int) ([]*Group, [][]event, error) {
	var arrivals []time.Duration
	for t := in.rng.ExpFloat64() / (pairsRate / 2); t < span.Seconds(); t += in.rng.ExpFloat64() / (pairsRate / 2) {
		arrivals = append(arrivals, time.Duration(t*float64(time.Second)))
	}
	pairs := in.g.FriendPairs(len(arrivals), in.rng.Int63())
	if len(pairs) < len(arrivals) {
		return nil, nil, fmt.Errorf("pairs: drew %d friend pairs, need %d", len(pairs), len(arrivals))
	}
	gs := groupsOf(in.gen.TwoWayRandom(pairs), 2, &in.next)
	lists := make([][]event, conns)
	for i, g := range gs {
		for _, m := range g.Members {
			text, err := renderSQL(m.Q, schema)
			if err != nil {
				return nil, nil, err
			}
			if err := checkSQLRoundTrip(m.Q, text, schema); err != nil {
				return nil, nil, err
			}
			m.Text = text
		}
		gap := pairsGapMin + time.Duration(in.rng.Int63n(int64(pairsGapMax-pairsGapMin)))
		c0, c1 := i%conns, (i+1)%conns
		lists[c0] = append(lists[c0], event{Due: arrivals[i], G: g, M: g.Members[0], Conn: c0})
		lists[c1] = append(lists[c1], event{Due: arrivals[i] + gap, G: g, M: g.Members[1], Conn: c1})
	}
	for _, l := range lists {
		sortEvents(l)
	}
	return gs, lists, nil
}

func runPairsWire(cfg runConfig, rep *Report) error {
	g := newGraph()
	oracle := NewOracle(hometowns(g))
	in := newPairInputs(g, cfg.Seed)
	warmSpan := time.Duration(pairsWarm / (pairsRate / 2) * float64(time.Second))
	type warmInput struct {
		groups []*Group
		lists  [][]event
	}
	warm := make([]warmInput, setupRepeats)
	var all []*Group
	for i := range warm {
		gs, lists, err := in.schedule(warmSpan, cfg.Conns)
		if err != nil {
			return err
		}
		warm[i] = warmInput{gs, lists}
		all = append(all, gs...)
	}

	env, setup, err := timeSetups(setupRepeats, func(i int) (*wireEnv, error) {
		sys, err := entangle.Open(
			entangle.WithMode(entangle.Incremental),
			entangle.WithShards(2),
			entangle.WithStaleAfter(30*time.Second),
			entangle.WithFlushInterval(100*time.Millisecond),
			entangle.WithSeed(cfg.Seed),
		)
		if err != nil {
			return nil, err
		}
		if err := workload.PopulateDB(sys.DB(), newGraph()); err != nil {
			sys.Close()
			return nil, err
		}
		env, err := startWire(sys, cfg.Conns)
		if err != nil {
			return nil, err
		}
		c := newCollector(nil)
		runOpenLoop(c, warm[i].lists, func(e event) { c.sendSQL(env.clients[e.Conn], e) })
		c.drain(drainTimeout)
		return env, nil
	})
	if err != nil {
		return err
	}
	defer env.Close()
	rep.Set("setup_s", setup)
	rep.Meta("substrate_users", workload.SlashdotUsers)
	rep.Meta("offered_qps", pairsRate)
	rep.Meta("partner_gap", fmt.Sprintf("uniform[%v,%v]", pairsGapMin, pairsGapMax))
	rep.Meta("batch_size", "-")
	rep.Meta("data_dir_fs", "-")
	rep.Meta("mode", "incremental, 2 shards, Run loop 100ms, no WAL")

	measure := func(span time.Duration, tr *Tracer) (*phase, error) {
		gs, lists, err := in.schedule(span, cfg.Conns)
		if err != nil {
			return nil, err
		}
		for _, g := range gs {
			g.Phase = phaseMeasure
		}
		reserveSpans(tr, gs)
		traced := tr != nil
		env.srvWire.on.Store(traced)
		env.cliWire.on.Store(traced)
		stop := make(chan struct{})
		qd := sampleQueueDepth(env.sys, stop, traced)
		a := snapPhase(env.sys, env, true)
		c := newCollector(tr)
		late := runOpenLoop(c, lists, func(e event) { c.sendSQL(env.clients[e.Conn], e) })
		c.drain(drainTimeout)
		b := snapPhase(env.sys, env, false)
		close(stop)
		env.srvWire.on.Store(false)
		env.cliWire.on.Store(false)
		p := &phase{groups: gs, late: late, span: span, rtt: c.rtt}
		p.finish(a, b)
		p.qdepth = <-qd
		return p, nil
	}

	span := time.Duration(cfg.Seconds * float64(time.Second))
	if !cfg.Trace {
		p, err := measure(span, nil)
		if err != nil {
			return err
		}
		all = append(all, p.groups...)
		rep.Attempt(checkGroups(oracle, all))
		setEndToEnd(rep, p)
		markCorrect(rep)
		all, p.groups = nil, nil
		setLiveHeap(rep)
		return nil
	}
	pa, err := measure(span/2, nil)
	if err != nil {
		return err
	}
	tr := NewTracer()
	pb, err := measure(span/2, tr)
	if err != nil {
		return err
	}
	all = append(all, pa.groups...)
	all = append(all, pb.groups...)
	rep.Attempt(checkGroups(oracle, all))
	markCorrect(rep)
	setOverhead(rep, pa, pb)
	setCounterLayers(rep, pb, len(pb.groups))
	idx, order := groupIndex(pb.groups)
	r := &replay{db: env.sys.DB(), tr: tr, order: order, groupOf: idx, sql: true, submits: true}
	if err := r.run(rep); err != nil {
		return err
	}
	m := rep.metrics
	noteWaiting(rep, m["eqsql.parse_us_p50"]+(m["engine.submit_open_us_p50"]+m["engine.submit_closing_us_p50"])/2, 1)
	return finishTrace(cfg, rep, tr)
}

// markCorrect fails the run's correctness flag when any check failed: a
// set-up, measured or recovered query that disagreed with the oracle, or a
// recovered count that differs from its value before the crash.
func markCorrect(rep *Report) {
	if n := len(rep.failures); n > 0 {
		rep.Fail("%d checks failed (listed below)", n)
	}
}

// finishTrace writes the spans and summarizes them in the report.
func finishTrace(cfg runConfig, rep *Report, tr *Tracer) error {
	spans := tr.Spans()
	for _, l := range spanSummary(spans) {
		rep.Note("%s", l)
	}
	path := traceFile(cfg)
	if err := tr.WriteFile(path); err != nil {
		return err
	}
	rep.Meta("trace_file", path)
	return nil
}
