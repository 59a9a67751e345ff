package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"entangle"
	"entangle/internal/engine"
	"entangle/internal/ir"
	"entangle/internal/server"
	"entangle/internal/workload"
)

// durable_batch_wire: a loopback d3cd with -data-dir semantics (WAL with
// batch group commit, no periodic checkpoint while measuring). One
// connection sends submit_batch requests of IR text at a fixed batch rate;
// each group's members go out in consecutive batches. Between batches a
// load request inserts new users and friendships that later groups
// reference. A fixed share of groups never completes and goes stale.
//
// durable_recover runs the same phase and then recovers a crash-consistent
// copy of the data directory, checks the recovered pending set and
// counters, and sends the recovered queries' missing partners. It is not
// among BENCHMARK.json's workloads: recovery re-parses the WAL's
// Query.String() text, which leaves lowercase constants unquoted, so every
// such run fails its recovery checks until internal/ir quotes them.
const (
	batchSize       = 64                    // d3cbench's default -batch
	batchPeriod     = 32 * time.Millisecond // 2000 queries/s, pairs_wire's rate
	loadEvery       = 10                    // a load request before every 10th batch
	loadUsers       = 4                     // new users per load
	neverShare      = 0.05                  // share of groups whose last member is never sent
	cycleShare      = 0.4                   // share of groups that are three-way cycles (the rest are pairs): as many cycle queries as pair queries
	newUserShare    = 0.2                   // share of pairs that use a user added by an earlier load
	durableStale    = time.Second
	durableWarm     = 10 // warm-up batches per set-up
	recoverRepeats  = 3  // recoveries a traced run times (wal.recover_s is their median); an untraced run checks one
	recoverDeadline = 10 * time.Second
)

// batchInputs builds the batch schedule: groups, their members' batch
// slots, and the load scripts with the hometowns they write.
type batchInputs struct {
	g        *workload.Graph
	gen      *workload.Gen
	rng      *rand.Rand
	next     int
	newUsers []newUser // users the current system holds (available to later groups)
	nextUser int
}

type newUser struct {
	id      int
	friends [2]int
	city    string
}

// batchPlan is one scheduled request sequence.
type batchPlan struct {
	groups  []*Group
	batches [][]*Member
	owner   map[*Member]*Group
	loads   map[int]string // batch index → load script sent just before it
	homes   map[int][]newUser
}

func newBatchInputs(g *workload.Graph, seed int64) *batchInputs {
	gen := workload.NewGen(g, seed)
	gen.DistinctRels = true
	return &batchInputs{g: g, gen: gen, rng: rand.New(rand.NewSource(seed)), next: 1, nextUser: g.N}
}

// loadScript adds loadUsers users, each befriending two existing users and
// living, with probability ½, in the first friend's city.
func (in *batchInputs) loadScript() (string, []newUser) {
	var b strings.Builder
	var added []newUser
	for i := 0; i < loadUsers; i++ {
		u := newUser{id: in.nextUser, friends: [2]int{in.rng.Intn(in.g.N), in.rng.Intn(in.g.N)}}
		in.nextUser++
		if in.rng.Intn(2) == 0 {
			u.city = in.g.Airport(int(in.g.Hometown[u.friends[0]]))
		} else {
			u.city = in.g.Airport(in.rng.Intn(len(in.g.Airports())))
		}
		name := workload.UserName(u.id)
		fmt.Fprintf(&b, "INSERT INTO %s VALUES (%s, %s);\n", workload.UserRel, quote(name), quote(u.city))
		for _, f := range u.friends {
			fn := workload.UserName(f)
			fmt.Fprintf(&b, "INSERT INTO %s VALUES (%s, %s);\n", workload.FriendsRel, quote(name), quote(fn))
			fmt.Fprintf(&b, "INSERT INTO %s VALUES (%s, %s);\n", workload.FriendsRel, quote(fn), quote(name))
		}
		added = append(added, u)
	}
	return b.String(), added
}

// plan schedules n batches. Groups start in every batch until it is full;
// member j of a group starting in batch b goes into batch b+j. Members
// that would fall past the last batch are left unsent (the crash cuts
// those groups); a neverShare of groups drops its last member on purpose.
func (in *batchInputs) plan(n int) (*batchPlan, error) {
	p := &batchPlan{batches: make([][]*Member, n), owner: make(map[*Member]*Group), loads: make(map[int]string), homes: make(map[int][]newUser)}
	var pendingUsers []newUser
	for b := 0; b < n; b++ {
		if b%loadEvery == 0 {
			script, added := in.loadScript()
			p.loads[b], p.homes[b] = script, added
			// Users become usable from the next batch on.
			in.newUsers = append(in.newUsers, pendingUsers...)
			pendingUsers = added
		}
		for len(p.batches[b]) < batchSize {
			var qs []*ir.Query
			k := 2
			switch {
			case in.rng.Float64() < cycleShare:
				tris := in.g.Triangles(1, in.rng.Int63())
				if len(tris) == 0 {
					continue
				}
				qs, k = in.gen.ThreeWay(tris), 3
			case len(in.newUsers) > 0 && in.rng.Float64() < newUserShare:
				u := in.newUsers[in.rng.Intn(len(in.newUsers))]
				qs = in.gen.TwoWayRandom([][2]int{{u.id, u.friends[in.rng.Intn(2)]}})
			default:
				qs = in.gen.TwoWayRandom(in.g.FriendPairs(1, in.rng.Int63()))
			}
			grp := groupsOf(qs, k, &in.next)[0]
			if in.rng.Float64() < neverShare {
				grp.Drop = 1
			}
			for j, m := range grp.Members {
				m.Text = renderIR(m.Q)
				if err := checkIRRoundTrip(m.Q, m.Text); err != nil {
					return nil, err
				}
				if j >= len(grp.Members)-grp.Drop || b+j >= n {
					continue
				}
				p.batches[b+j] = append(p.batches[b+j], m)
				p.owner[m] = grp
			}
			p.groups = append(p.groups, grp)
		}
	}
	in.newUsers = append(in.newUsers, pendingUsers...)
	return p, nil
}

// durableEnv is one set-up: a durable system served on loopback.
type durableEnv struct {
	*wireEnv
	dir string
}

// durableOpts are the options of every durable system the workload opens.
func durableOpts(dir string, seed int64) []entangle.Option {
	return []entangle.Option{
		entangle.WithMode(entangle.Incremental),
		entangle.WithShards(2),
		entangle.WithStaleAfter(durableStale),
		entangle.WithFlushInterval(100 * time.Millisecond),
		entangle.WithSeed(seed),
		entangle.WithDataDir(dir),
		entangle.WithDurability(entangle.DurabilityBatch),
		entangle.WithCheckpointEvery(-1),
	}
}

// sendPlan runs the plan's batches as an open loop on client cl: each
// batch (preceded by its load, if any) is due at its index times the batch
// period. Returns the lateness of every batch.
func sendPlan(c *collector, cl *server.Client, p *batchPlan, oracle *Oracle) ([]time.Duration, error) {
	var loadErr error
	evs := make([]event, len(p.batches))
	for i := range p.batches {
		evs[i] = event{Due: time.Duration(i) * batchPeriod, Batch: i}
	}
	late := openLoop(c.start, evs, func(e event) {
		b := e.Batch
		if script, ok := p.loads[b]; ok {
			for _, u := range p.homes[b] {
				oracle.SetHome(workload.UserName(u.id), u.city)
			}
			if err := cl.Load(script); err != nil && loadErr == nil {
				loadErr = fmt.Errorf("load before batch %d: %w", b, err)
			}
		}
		c.sendBatch(cl, p, b, e.Due)
	})
	return late, loadErr
}

// sendBatch submits batch b as one submit_batch request of IR texts.
func (c *collector) sendBatch(cl *server.Client, p *batchPlan, b int, due time.Duration) {
	ms := p.batches[b]
	if len(ms) == 0 {
		return
	}
	qs := make([]server.BatchQuery, len(ms))
	for i, m := range ms {
		qs[i] = server.BatchQuery{IR: m.Text}
		c.begin(p.owner[m], m, due)
	}
	t0 := c.now()
	hs, err := cl.SubmitBatch(qs)
	t1 := c.now()
	if err == nil && len(hs) != len(ms) {
		err = fmt.Errorf("batch reply has %d handles for %d queries", len(hs), len(ms))
	}
	if err != nil {
		for _, m := range ms {
			c.failed(p.owner[m], m, err)
		}
		return
	}
	c.addRTT(0, int64(b), t0, t1)
	for i, m := range ms {
		g := p.owner[m]
		if hs[i].Err != nil {
			c.failed(g, m, hs[i].Err)
			continue
		}
		g.acked(m, hs[i].ID, t1)
		go c.await(g, m, hs[i].ID, hs[i].Ch)
	}
}

func runDurableBatchWire(cfg runConfig, rep *Report) error { return runDurable(cfg, rep, false) }

func runDurableRecover(cfg runConfig, rep *Report) error { return runDurable(cfg, rep, true) }

// runDurable runs the durable batch phase and, withRecovery, the crash
// and recovery after it.
func runDurable(cfg runConfig, rep *Report, withRecovery bool) error {
	g := newGraph()
	oracle := NewOracle(hometowns(g))
	in := newBatchInputs(g, cfg.Seed)
	warm := make([]*batchPlan, setupRepeats)
	var all []*Group
	for i := range warm {
		in.newUsers = nil // each set-up loads its own users
		p, err := in.plan(durableWarm)
		if err != nil {
			return err
		}
		warm[i] = p
		all = append(all, p.groups...)
	}
	span := time.Duration(cfg.Seconds * float64(time.Second))
	nb := int(span / batchPeriod)
	var pa, pb *batchPlan
	var err error
	in.newUsers = nil // the measured system holds only the last warm-up's users
	if cfg.Trace {
		if pa, err = in.plan(nb / 2); err != nil {
			return err
		}
		if pb, err = in.plan(nb / 2); err != nil {
			return err
		}
	} else if pa, err = in.plan(nb); err != nil {
		return err
	}

	env, setup, err := timeSetups(setupRepeats, func(i int) (*durableEnv, error) {
		dir := filepath.Join(cfg.WorkDir, fmt.Sprintf("data-%d", i))
		sys, err := entangle.Open(durableOpts(dir, cfg.Seed)...)
		if err != nil {
			return nil, err
		}
		// The substrate goes straight into the database and is made
		// durable by the initial checkpoint, as a restored snapshot would.
		if err := workload.PopulateDB(sys.DB(), newGraph()); err != nil {
			sys.Close()
			return nil, err
		}
		if err := sys.Checkpoint(); err != nil {
			sys.Close()
			return nil, fmt.Errorf("initial checkpoint: %w", err)
		}
		w, err := startWire(sys, 1)
		if err != nil {
			return nil, err
		}
		c := newCollector(nil)
		if _, err := sendPlan(c, w.clients[0], warm[i], oracle); err != nil {
			w.Close()
			return nil, err
		}
		// Warm-up groups cut at its end, and its never-completing groups,
		// expire stale; the measured phase starts once they have.
		c.drain(drainTimeout)
		return &durableEnv{wireEnv: w, dir: dir}, nil
	})
	if err != nil {
		return err
	}
	defer env.Close()
	rep.Set("setup_s", setup)
	rep.Meta("substrate_users", workload.SlashdotUsers)
	rep.Meta("offered_qps", float64(batchSize)/batchPeriod.Seconds())
	rep.Meta("batch_size", batchSize)
	rep.Meta("batch_period", batchPeriod)
	rep.Meta("partner_gap", fmt.Sprintf("one batch (%v)", batchPeriod))
	rep.Meta("data_dir_fs", fsType(env.dir))
	rep.Meta("crash_recovery", withRecovery)
	rep.Meta("mode", fmt.Sprintf("incremental, 2 shards, WAL batch group commit, no periodic checkpoint, stale after %v, %d new users per load every %d batches, %.0f%% never-completing groups", durableStale, loadUsers, loadEvery, neverShare*100))

	measure := func(p *batchPlan, tr *Tracer, crash func() error) (*phase, error) {
		for _, g := range p.groups {
			g.Phase = phaseMeasure
		}
		reserveSpans(tr, p.groups)
		traced := tr != nil
		env.srvWire.on.Store(traced)
		env.cliWire.on.Store(traced)
		stop := make(chan struct{})
		qd := sampleQueueDepth(env.sys, stop, traced)
		a := snapPhase(env.sys, env.wireEnv, true)
		c := newCollector(tr)
		late, err := sendPlan(c, env.clients[0], p, oracle)
		if err != nil {
			return nil, err
		}
		b := snapPhase(env.sys, env.wireEnv, false)
		close(stop)
		env.srvWire.on.Store(false)
		env.cliWire.on.Store(false)
		if crash != nil {
			if err := crash(); err != nil {
				return nil, err
			}
		}
		// Cut and never-completing groups expire stale within the bound.
		c.drain(drainTimeout)
		ph := &phase{groups: p.groups, late: late, span: time.Duration(len(p.batches)) * batchPeriod, rtt: c.rtt}
		ph.finish(a, b)
		ph.qdepth = <-qd
		return ph, nil
	}

	// The crash (durable_recover only): stop the Run loop so nothing
	// expires or checkpoints, force the log to disk, remember the counters
	// and pending set, copy the data directory, and let the original carry
	// on.
	var before entangle.Stats
	crashDirs := make([]string, 1)
	if cfg.Trace {
		crashDirs = make([]string, recoverRepeats)
	}
	var crash func() error
	if withRecovery {
		crash = func() error {
			env.stopRun()
			defer env.startRun()
			if err := env.sys.Engine().SyncWAL(); err != nil {
				return fmt.Errorf("sync wal: %w", err)
			}
			before = env.sys.Stats()
			for i := range crashDirs {
				crashDirs[i] = filepath.Join(cfg.WorkDir, fmt.Sprintf("crash-%d", i))
				if err := copyDir(env.dir, crashDirs[i]); err != nil {
					return err
				}
			}
			return nil
		}
	}

	var phA, phB *phase
	var tr *Tracer
	if !cfg.Trace {
		if phA, err = measure(pa, nil, crash); err != nil {
			return err
		}
		all = append(all, pa.groups...)
	} else {
		if phA, err = measure(pa, nil, nil); err != nil {
			return err
		}
		tr = NewTracer()
		if phB, err = measure(pb, tr, crash); err != nil {
			return err
		}
		all = append(all, pa.groups...)
		all = append(all, pb.groups...)
	}
	rep.Attempt(checkGroups(oracle, all))
	if !cfg.Trace {
		setEndToEnd(rep, phA)
		all, phA.groups = nil, nil
		setLiveHeap(rep)
	}

	last := pa
	if cfg.Trace {
		last = pb
	}
	db := env.sys.DB()
	env.Close()
	if withRecovery {
		recoverS, err := recoverAndCheck(cfg, rep, oracle, last, crashDirs, before)
		if err != nil {
			return err
		}
		rep.Set("wal.recover_s", recoverS)
	}
	markCorrect(rep)
	if !cfg.Trace {
		return nil
	}
	setOverhead(rep, phA, phB)
	setCounterLayers(rep, phB, len(phB.groups))
	idx, order := groupIndex(phB.groups)
	var loads []string
	for b := 0; b < len(pb.batches); b++ {
		if s, ok := pb.loads[b]; ok {
			loads = append(loads, s)
		}
	}
	var never []*ir.Query
	for _, g := range pb.groups {
		if g.Drop > 0 {
			never = append(never, g.Members[0].Q)
		}
	}
	r := &replay{db: db, tr: tr, order: order, groupOf: idx, backlog: never, irText: true, submits: true, batches: pb.batches, loads: loads}
	if err := r.run(rep); err != nil {
		return err
	}
	m := rep.metrics
	noteWaiting(rep, batchSize*(m["ir.parse_us_per_query"]+m["engine.batch_us_per_query"]), batchSize)
	return finishTrace(cfg, rep, tr)
}

// recoverAndCheck recovers each crash copy (timing entangle.Open), checks
// the last recovery's pending count and outcome counters against the
// values before the crash, sends the missing partners of the recovered
// queries whose groups were cut by the crash, and checks every recovered
// outcome with the oracle. Returns the median recovery time.
func recoverAndCheck(cfg runConfig, rep *Report, oracle *Oracle, p *batchPlan, dirs []string, before entangle.Stats) (float64, error) {
	var secs []float64
	var sys *entangle.System
	for _, dir := range dirs {
		if sys != nil {
			sys.Close()
		}
		t0 := time.Now()
		s, err := entangle.Open(durableOpts(dir, cfg.Seed)...)
		if err != nil {
			return 0, fmt.Errorf("recover %s: %w", dir, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		sys = s
	}
	defer sys.Close()
	recS := median(secs)
	rep.Note("recover_s=%.6f (median of %d recoveries of the crash copy)", recS, len(secs))

	bookkeeping := func(what string, got, want int) {
		if got != want {
			rep.Attempt(0, []Failure{{Group: -1, Phase: phaseRecover, Reason: fmt.Sprintf("recovered %s %d, before the crash %d", what, got, want)}})
		}
	}
	rec := sys.Engine().Recovered()
	after := sys.Stats()
	bookkeeping("pending count", len(rec), before.Pending)
	bookkeeping("Submitted", after.Submitted, before.Submitted)
	bookkeeping("Answered", after.Answered, before.Answered)
	bookkeeping("Rejected", after.Rejected, before.Rejected)
	bookkeeping("RejectedUnsafe", after.RejectedUnsafe, before.RejectedUnsafe)
	bookkeeping("ExpiredStale", after.ExpiredStale, before.ExpiredStale)
	rep.Note("recovery: %d pending recovered (%d before the crash); counters submitted=%d answered=%d rejected=%d stale=%d",
		len(rec), before.Pending, after.Submitted, after.Answered, after.Rejected, after.ExpiredStale)

	// Map recovered handles back to their groups through the IDs the live
	// run was acknowledged with.
	byID := make(map[ir.QueryID]*Member)
	owner := make(map[*Member]*Group)
	for _, g := range p.groups {
		for _, m := range g.Members {
			if m.Sent && m.SubErr == "" {
				byID[m.ID] = m
				owner[m] = g
			}
		}
	}
	c := newCollector(nil)
	ctx := context.Background()
	clones := make(map[*Group]*Group)
	var origs, recGroups []*Group
	for _, h := range rec {
		m, ok := byID[h.ID]
		if !ok {
			rep.Attempt(1, []Failure{{Group: -1, Query: h.ID, Phase: phaseRecover, Reason: "recovered a query the run never had acknowledged"}})
			continue
		}
		og := owner[m]
		cg := clones[og]
		if cg == nil {
			cg = &Group{ID: og.ID, Rel: og.Rel, Dest: og.Dest, Drop: og.Drop, Phase: phaseRecover}
			for _, om := range og.Members {
				cg.Members = append(cg.Members, &Member{User: om.User, Q: om.Q})
			}
			clones[og] = cg
			origs = append(origs, og)
			recGroups = append(recGroups, cg)
		}
		for i, om := range og.Members {
			if om == m {
				cm := cg.Members[i]
				c.begin(cg, cm, 0)
				cg.acked(cm, h.ID, 0)
				go c.awaitResult(cg, cm, h.ID, engineWaiter{h}, nil)
			}
		}
	}
	// Send the partners the crash cut off.
	for k, og := range origs {
		cg := recGroups[k]
		for _, i := range cutPartners(og) {
			cm := cg.Members[i]
			c.begin(cg, cm, c.now())
			h, err := sys.Submit(ctx, cm.Q)
			if err != nil {
				c.failed(cg, cm, err)
				continue
			}
			cg.acked(cm, h.ID(), c.now())
			go c.awaitResult(cg, cm, h.ID(), h, nil)
		}
	}
	// Incremental evaluation delivers completed groups inside Submit;
	// never-completing ones stay pending, and closing the recovered system
	// fails them stale.
	sys.Close()
	c.drain(recoverDeadline)
	n, fs := checkGroups(oracle, recGroups)
	rep.Attempt(n, fs)
	rep.Note("after recovery: %d queries checked in %d groups, %d failed", n, len(recGroups), len(fs))
	return recS, nil
}

// cutPartners returns the members of g the live run never sent although
// the group was meant to complete: the partners a crash cut off. Members a
// never-completing group holds back are not among them, and neither is a
// member that was sent and has since settled (it may have expired before
// the crash).
func cutPartners(g *Group) []int {
	var out []int
	for i, m := range g.Members {
		if !m.Sent && i < len(g.Members)-g.Drop {
			out = append(out, i)
		}
	}
	return out
}

// engineWaiter gives an engine handle (as recovery returns them) the root
// API's Wait.
type engineWaiter struct{ h *engine.Handle }

func (w engineWaiter) Wait(ctx context.Context) (entangle.Result, error) {
	select {
	case r := <-w.h.Done():
		return entangle.Result(r), nil
	case <-ctx.Done():
		return entangle.Result{}, ctx.Err()
	}
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	default:
		return fmt.Sprintf("0x%x", uint32(st.Type))
	}
}
