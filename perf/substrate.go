package main

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"entangle"
	"entangle/internal/ir"
	"entangle/internal/server"
	"entangle/internal/workload"
)

// substrateSeed is the social graph's seed, fixed so every run shares the
// paper-sized substrate; --seed drives only the workload drawn over it.
const substrateSeed = 42

// schema lists the substrate's columns for the SQL renderer.
var schema = map[string][]string{
	workload.FriendsRel: {"u1", "u2"},
	workload.UserRel:    {"u", "city"},
}

func newGraph() *workload.Graph {
	return workload.NewGraph(workload.Config{N: workload.SlashdotUsers, Seed: substrateSeed})
}

// hometowns maps every user name to its hometown airport.
func hometowns(g *workload.Graph) map[string]string {
	home := make(map[string]string, g.N)
	for u := 0; u < g.N; u++ {
		home[workload.UserName(u)] = g.Airport(int(g.Hometown[u]))
	}
	return home
}

// groupsOf cuts a generator's output into groups of k consecutive queries
// (the generators emit each group's members together, all heads naming
// the group's ANSWER relation and destination).
func groupsOf(qs []*ir.Query, k int, nextID *int) []*Group {
	var out []*Group
	for i := 0; i+k <= len(qs); i += k {
		head := qs[i].Heads[0]
		g := &Group{ID: *nextID, Rel: head.Rel, Dest: head.Args[1].Value}
		*nextID++
		for _, q := range qs[i : i+k] {
			g.Members = append(g.Members, &Member{User: q.Owner, Q: q})
		}
		out = append(out, g)
	}
	return out
}

// wireEnv is an in-process d3cd on loopback — entangle.Open, server.New,
// Serve and Run wired as cmd/d3cd wires them — plus the benchmark's
// clients. Both ends of every connection are wrapped in counters.
type wireEnv struct {
	sys       *entangle.System
	srv       *server.Server
	l         net.Listener
	clients   []*server.Client
	srvWire   *wireCounters
	cliWire   *wireCounters
	cancelRun context.CancelFunc
	runDone   chan struct{}
	serveDone chan error
	closeOnce sync.Once
}

// startWire serves sys on a loopback port with the Run loop on and dials
// conns clients.
func startWire(sys *entangle.System, conns int) (*wireEnv, error) {
	w := &wireEnv{sys: sys, srvWire: &wireCounters{}, cliWire: &wireCounters{}, serveDone: make(chan error, 1)}
	w.startRun()
	w.srv = server.New(sys.Engine())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.stopRun()
		sys.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	w.l = &countingListener{Listener: l, c: w.srvWire}
	go func() { w.serveDone <- w.srv.Serve(w.l) }()
	for i := 0; i < conns; i++ {
		c, err := server.DialWith(l.Addr().String(), server.DialOptions{
			OpTimeout: 30 * time.Second,
			Dialer:    countingDialer(w.cliWire),
		})
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		w.clients = append(w.clients, c)
	}
	return w, nil
}

// startRun starts the engine's Run loop (flush, staleness, family GC).
func (w *wireEnv) startRun() {
	ctx, cancel := context.WithCancel(context.Background())
	w.cancelRun, w.runDone = cancel, make(chan struct{})
	go func() {
		w.sys.Run(ctx)
		close(w.runDone)
	}()
}

// stopRun stops the Run loop and waits for it to return.
func (w *wireEnv) stopRun() {
	if w.cancelRun != nil {
		w.cancelRun()
		<-w.runDone
		w.cancelRun = nil
	}
}

// Close tears everything down and waits for the server to stop.
func (w *wireEnv) Close() {
	w.closeOnce.Do(func() {
		for _, c := range w.clients {
			c.Close()
		}
		w.stopRun()
		if w.srv != nil {
			w.srv.Shutdown()
			w.l.Close()
			<-w.serveDone
		}
		w.sys.Close()
	})
}

// event is one scheduled submission of the open loop.
type event struct {
	Due   time.Duration
	G     *Group
	M     *Member
	Conn  int // client connection (single submissions)
	Batch int // batch index (batch submissions)
}

// sortEvents orders events by due time (stable, so ties keep input order).
func sortEvents(evs []event) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Due < evs[j].Due })
}

// openLoop sends evs (sorted by due time) on the calling goroutine, each at
// start+Due or as soon as the previous send returns if that is later. A
// send that stalls delays the ones behind it, and since every latency is
// measured from the event's due time, that wait is counted rather than
// omitted. Returns how late each send started.
func openLoop(start time.Time, evs []event, send func(e event)) []time.Duration {
	liveGens.add(1)
	defer liveGens.add(-1)
	late := make([]time.Duration, 0, len(evs))
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for _, e := range evs {
		if d := time.Until(start.Add(e.Due)); d > 0 {
			timer.Reset(d)
			<-timer.C
		}
		late = append(late, time.Since(start)-e.Due)
		send(e)
	}
	return late
}

// latencies collects the phase's ack and coordination samples: ack from
// each sent member's due time to its acknowledgement; coordination from
// the closing member's due time to the last member's outcome, for groups
// whose members were all sent and that did not go stale.
type latencies struct {
	ack, coord []float64
}

func collectLatencies(groups []*Group) latencies {
	var l latencies
	for _, g := range groups {
		complete, stale := g.Drop == 0, false
		var due, done time.Duration
		for _, m := range g.Members {
			if !m.Sent || m.SubErr != "" {
				complete = false
				continue
			}
			l.ack = append(l.ack, ms(m.Acked-m.Due))
			due, done = max(due, m.Due), max(done, m.Done)
			if m.Status == "stale" || m.Status == "" {
				stale = true
			}
		}
		if complete && !stale {
			l.coord = append(l.coord, ms(done-due))
		}
	}
	return l
}

// checkGroups runs the oracle over groups and returns the number of sent
// members and the failures.
func checkGroups(o *Oracle, groups []*Group) (int, []Failure) {
	n := 0
	var fs []Failure
	for _, g := range groups {
		for _, m := range g.Members {
			if m.Sent {
				n++
			}
		}
		fs = append(fs, o.check(g)...)
	}
	return n, fs
}

// goodQueries counts the answered or rejected members whose outcome the
// oracle check passed (run checkGroups first), and returns the time the
// last of those outcomes arrived. Stale outcomes are left out: they arrive
// on the staleness timer, not on the system's own pace.
func goodQueries(groups []*Group) (int, time.Duration) {
	n := 0
	var last time.Duration
	for _, g := range groups {
		for _, m := range g.Members {
			if m.Sent && !m.Bad && (m.Status == "answered" || m.Status == "rejected") {
				n++
				last = max(last, m.Done)
			}
		}
	}
	return n, last
}
