package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"entangle/internal/ir"
)

// The outcome oracle is independent of the engine. It knows only the
// substrate's hometowns (plus the workload's own load writes) and the
// shape of each generated group: every group coordinates through its own
// ANSWER relation, its members are friends, and its bodies require every
// member to live in one city. So a group whose members were all sent is
// answered iff they share a hometown (each member receiving exactly its
// own head tuple R_g(owner, dest)) and rejected otherwise, and a group
// with an unsent member leaves every sent member stale.

// Oracle maps user names to hometowns.
type Oracle struct {
	mu   sync.Mutex
	home map[string]string
}

// NewOracle returns an oracle over the given hometowns.
func NewOracle(home map[string]string) *Oracle { return &Oracle{home: home} }

// SetHome records a hometown written by the workload's own load requests.
func (o *Oracle) SetHome(user, city string) {
	o.mu.Lock()
	o.home[user] = city
	o.mu.Unlock()
}

// Home returns a user's hometown.
func (o *Oracle) Home(user string) (string, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	c, ok := o.home[user]
	return c, ok
}

// Member is one query of a group.
type Member struct {
	User string
	Q    *ir.Query
	Text string // wire text (SQL or IR); empty for in-process submission

	// Filled in while the workload runs.
	ID     ir.QueryID    // engine-assigned ID, once acknowledged
	Sent   bool          // submission attempted
	Due    time.Duration // scheduled send time (open loop) or call time (closed loop)
	Acked  time.Duration // admission acknowledged
	Done   time.Duration // terminal result held by the client
	Status string        // terminal status; "" while none arrived
	Tuples []string      // answered tuples, rendered
	Extra  int           // outcomes beyond the first
	SubErr string        // submission error or shed reply
	Bad    bool          // set by the oracle check when the member failed
}

// Group is one coordinating group: a pair, a cycle or a clique.
type Group struct {
	ID      int
	Rel     string
	Dest    string
	Members []*Member
	Drop    int   // members at the tail that are never sent (a never-completing group)
	Phase   int   // which part of the run sent it (see phase* constants)
	Span    int64 // root span of a traced group

	mu   sync.Mutex
	left int // sent members still without an outcome
}

// Run phases a group can belong to.
const (
	phaseWarm = iota // set-up: warm-up groups and standing backlogs
	phaseMeasure
	phaseRecover
)

// Expected is the oracle's verdict for one member.
type Expected struct {
	Status string
	Tuple  string // rendered head tuple when answered
}

// expect returns the oracle's verdict for every sent member of g, keyed by
// member index. sent reports which members were submitted.
func (o *Oracle) expect(g *Group, sent func(i int) bool) []Expected {
	out := make([]Expected, len(g.Members))
	complete := true
	for i := range g.Members {
		if !sent(i) {
			complete = false
		}
	}
	same := true
	var city string
	for i, m := range g.Members {
		c, ok := o.Home(m.User)
		if !ok {
			same = false
			break
		}
		if i == 0 {
			city = c
		} else if c != city {
			same = false
		}
	}
	for i, m := range g.Members {
		switch {
		case !complete:
			out[i] = Expected{Status: "stale"}
		case same:
			out[i] = Expected{Status: "answered", Tuple: ir.NewAtom(g.Rel, ir.Const(m.User), ir.Const(g.Dest)).String()}
		default:
			out[i] = Expected{Status: "rejected"}
		}
	}
	return out
}

// Failure is one query whose outcome disagrees with the oracle or that
// failed outright.
type Failure struct {
	Group  int
	Query  ir.QueryID
	Phase  int
	Reason string
}

func (f Failure) String() string {
	return fmt.Sprintf("q%d (group %d, %s): %s", f.Query, f.Group, phaseName(f.Phase), f.Reason)
}

func phaseName(p int) string {
	switch p {
	case phaseWarm:
		return "set-up"
	case phaseMeasure:
		return "measured"
	default:
		return "after recovery"
	}
}

// check compares every sent member of g with the oracle and returns the
// failures. A member fails when its submission failed, no outcome arrived,
// more than one did, or the status or tuples disagree.
func (o *Oracle) check(g *Group) []Failure {
	g.mu.Lock()
	defer g.mu.Unlock()
	exp := o.expect(g, func(i int) bool { return g.Members[i].Sent })
	var out []Failure
	fail := func(m *Member, format string, args ...any) {
		m.Bad = true
		out = append(out, Failure{Group: g.ID, Query: m.ID, Phase: g.Phase, Reason: fmt.Sprintf(format, args...)})
	}
	for i, m := range g.Members {
		if !m.Sent {
			continue
		}
		e := exp[i]
		switch {
		case m.SubErr != "":
			fail(m, "submission failed: %s", m.SubErr)
		case m.Status == "":
			fail(m, "no outcome (timed out or lost); expected %s", e.Status)
		case m.Extra > 0:
			fail(m, "%d outcomes instead of one", m.Extra+1)
		case m.Status != e.Status:
			fail(m, "status %s, oracle says %s (tuples %s)", m.Status, e.Status, strings.Join(m.Tuples, " "))
		case e.Status == "answered" && (len(m.Tuples) != 1 || m.Tuples[0] != e.Tuple):
			fail(m, "tuples %s, oracle says %s", strings.Join(m.Tuples, " "), e.Tuple)
		}
	}
	return out
}

// markSent records that m's submission is being attempted, due at due.
func (g *Group) markSent(m *Member, due time.Duration) {
	g.mu.Lock()
	m.Sent, m.Due = true, due
	g.left++
	g.mu.Unlock()
}

// acked records m's admission under its engine-assigned ID.
func (g *Group) acked(m *Member, id ir.QueryID, at time.Duration) {
	g.mu.Lock()
	m.ID, m.Acked = id, at
	g.mu.Unlock()
}

// release drops the query objects and texts of g's sent members.
func (g *Group) release() {
	g.mu.Lock()
	for _, m := range g.Members {
		if m.Sent {
			m.Q, m.Text = nil, ""
		}
	}
	g.mu.Unlock()
}

// refused records a failed submission; it reports whether that settled the
// last outstanding member.
func (g *Group) refused(m *Member, at time.Duration, err error) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	m.SubErr, m.Acked, m.Done = err.Error(), at, at
	g.left--
	return g.left == 0
}

// record stores a terminal outcome on a member, counting duplicates. It
// reports whether that settled the last outstanding member.
func (g *Group) record(m *Member, at time.Duration, status string, tuples []string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if m.Status != "" {
		m.Extra++
		return false
	}
	m.Status, m.Tuples, m.Done = status, tuples, at
	g.left--
	return g.left == 0
}

// summarizeFailures renders failures sorted by query ID, at most limit lines.
func summarizeFailures(fs []Failure, limit int) []string {
	sort.Slice(fs, func(i, j int) bool { return fs[i].Query < fs[j].Query })
	var out []string
	for i, f := range fs {
		if i == limit {
			out = append(out, fmt.Sprintf("… and %d more", len(fs)-limit))
			break
		}
		out = append(out, f.String())
	}
	return out
}
