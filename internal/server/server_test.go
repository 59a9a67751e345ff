package server

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"entangle/internal/engine"
	"entangle/internal/memdb"
)

// startServer spins up an engine + server on a random port.
func startServer(t *testing.T, cfg engine.Config) (*Server, string) {
	t.Helper()
	db := memdb.New()
	db.MustCreateTable("Flights", "fno", "dest")
	db.MustCreateTable("F", "fno", "dest")
	for _, r := range [][]string{{"122", "Paris"}, {"123", "Paris"}, {"136", "Rome"}} {
		db.MustInsert("Flights", r...)
		db.MustInsert("F", r...)
	}
	e := engine.New(db, cfg)
	s := New(e)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() {
		s.Shutdown()
		l.Close()
	})
	return s, l.Addr().String()
}

func waitResult(t *testing.T, ch <-chan Response) Response {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for result")
		return Response{}
	}
}

func TestServerSQLRoundTrip(t *testing.T) {
	_, addr := startServer(t, engine.Config{Mode: engine.Incremental})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	id1, ch1, err := c.SubmitSQL(`SELECT 'Kramer', fno INTO ANSWER R
WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris')
AND ('Jerry', fno) IN ANSWER R CHOOSE 1`)
	if err != nil {
		t.Fatal(err)
	}
	_, ch2, err := c.SubmitSQL(`SELECT 'Jerry', fno INTO ANSWER R
WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris')
AND ('Kramer', fno) IN ANSWER R CHOOSE 1`)
	if err != nil {
		t.Fatal(err)
	}
	r1 := waitResult(t, ch1)
	r2 := waitResult(t, ch2)
	if r1.Status != "answered" || r2.Status != "answered" {
		t.Fatalf("statuses %s/%s (%s/%s)", r1.Status, r2.Status, r1.Detail, r2.Detail)
	}
	if r1.ID != id1 {
		t.Fatalf("result id %d != submitted id %d", r1.ID, id1)
	}
	if len(r1.Tuples) != 1 || len(r2.Tuples) != 1 {
		t.Fatalf("tuples %v / %v", r1.Tuples, r2.Tuples)
	}
	if r1.Tuples[0][len(r1.Tuples[0])-4:] != r2.Tuples[0][len(r2.Tuples[0])-4:] {
		t.Fatalf("coordinated tuples differ: %v vs %v", r1.Tuples, r2.Tuples)
	}
}

func TestServerIRAndStats(t *testing.T) {
	_, addr := startServer(t, engine.Config{Mode: engine.Incremental})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, ch1, err := c.SubmitIR("{R(Jerry, x)} R(Kramer, x) :- F(x, Paris)")
	if err != nil {
		t.Fatal(err)
	}
	_, ch2, err := c.SubmitIR("{R(Kramer, y)} R(Jerry, y) :- F(y, Paris)")
	if err != nil {
		t.Fatal(err)
	}
	if r := waitResult(t, ch1); r.Status != "answered" {
		t.Fatalf("r1 = %+v", r)
	}
	if r := waitResult(t, ch2); r.Status != "answered" {
		t.Fatalf("r2 = %+v", r)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats == nil || st.Stats.Answered != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServerFlush(t *testing.T) {
	_, addr := startServer(t, engine.Config{Mode: engine.SetAtATime})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, ch1, err := c.SubmitIR("{R(B, x)} R(A, x) :- F(x, Paris)")
	if err != nil {
		t.Fatal(err)
	}
	_, ch2, err := c.SubmitIR("{R(A, y)} R(B, y) :- F(y, Paris)")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if r := waitResult(t, ch1); r.Status != "answered" {
		t.Fatalf("r1 = %+v", r)
	}
	if r := waitResult(t, ch2); r.Status != "answered" {
		t.Fatalf("r2 = %+v", r)
	}
}

func TestServerBadRequests(t *testing.T) {
	_, addr := startServer(t, engine.Config{Mode: engine.Incremental})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.SubmitSQL("NOT SQL AT ALL"); err == nil {
		t.Fatal("bad SQL must fail")
	}
	if _, _, err := c.SubmitIR("not ir"); err == nil {
		t.Fatal("bad IR must fail")
	}
}

func TestServerHundredClients(t *testing.T) {
	// The paper's implementation "can accept connections and queries from a
	// hundred clients": 50 pairs of clients coordinate pairwise.
	_, addr := startServer(t, engine.Config{Mode: engine.Incremental})
	const pairs = 50
	var wg sync.WaitGroup
	errs := make(chan error, pairs*2)
	for p := 0; p < pairs; p++ {
		for side := 0; side < 2; side++ {
			wg.Add(1)
			go func(p, side int) {
				defer wg.Done()
				c, err := Dial(addr)
				if err != nil {
					errs <- err
					return
				}
				defer c.Close()
				me, partner := fmt.Sprintf("A%d", p), fmt.Sprintf("B%d", p)
				if side == 1 {
					me, partner = partner, me
				}
				irText := fmt.Sprintf("{R%d(%s, x)} R%d(%s, x) :- F(x, Paris)", p, partner, p, me)
				_, ch, err := c.SubmitIR(irText)
				if err != nil {
					errs <- err
					return
				}
				r := <-ch
				if r.Status != "answered" {
					errs <- fmt.Errorf("pair %d side %d: %s (%s)", p, side, r.Status, r.Detail)
				}
			}(p, side)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServerShardedConcurrentPartners runs the quickstart friendship
// pattern over a sharded engine: two clients connect concurrently, each
// submits one half of a coordinating pair, and both must receive the
// matched answer — the partners land on the same shard by the routing
// invariant even though they arrive on different connections. The stats
// reply must carry the per-shard counters.
func TestServerShardedConcurrentPartners(t *testing.T) {
	_, addr := startServer(t, engine.Config{Mode: engine.Incremental, Shards: 8})
	type outcome struct {
		r   Response
		err error
	}
	results := make(chan outcome, 2)
	submit := func(me, partner string) {
		c, err := Dial(addr)
		if err != nil {
			results <- outcome{err: err}
			return
		}
		defer c.Close()
		sql := fmt.Sprintf(`SELECT '%s', fno INTO ANSWER R
WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris')
AND ('%s', fno) IN ANSWER R CHOOSE 1`, me, partner)
		_, ch, err := c.SubmitSQL(sql)
		if err != nil {
			results <- outcome{err: err}
			return
		}
		results <- outcome{r: waitResult(t, ch)}
	}
	go submit("Kramer", "Jerry")
	go submit("Jerry", "Kramer")
	var got []Response
	for i := 0; i < 2; i++ {
		o := <-results
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.r.Status != "answered" {
			t.Fatalf("client %d: %s (%s)", i, o.r.Status, o.r.Detail)
		}
		got = append(got, o.r)
	}
	// Both partners hold the same flight.
	f0 := got[0].Tuples[0][len(got[0].Tuples[0])-4:]
	f1 := got[1].Tuples[0][len(got[1].Tuples[0])-4:]
	if f0 != f1 {
		t.Fatalf("partners booked different flights: %v vs %v", got[0].Tuples, got[1].Tuples)
	}

	// The stats reply exposes per-shard counters that sum to the aggregate.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats == nil || st.Stats.Answered != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.Stats.PerShard) != 8 {
		t.Fatalf("stats reply has %d per-shard entries, want 8", len(st.Stats.PerShard))
	}
	sum := 0
	for _, sh := range st.Stats.PerShard {
		sum += sh.Answered
	}
	if sum != st.Stats.Answered {
		t.Fatalf("per-shard answered sums to %d, aggregate %d", sum, st.Stats.Answered)
	}
}

func TestServerLoadScript(t *testing.T) {
	db := memdb.New()
	e := engine.New(db, engine.Config{Mode: engine.Incremental})
	s := New(e)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Shutdown(); l.Close() })

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Load(`CREATE TABLE Flights (fno, dest);
INSERT INTO Flights VALUES ('777', 'Paris');`)
	if err != nil {
		t.Fatal(err)
	}
	// The freshly loaded schema is immediately usable by entangled SQL.
	_, ch1, err := c.SubmitSQL(`SELECT 'A', fno INTO ANSWER R
WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris')
AND ('B', fno) IN ANSWER R CHOOSE 1`)
	if err != nil {
		t.Fatal(err)
	}
	_, ch2, err := c.SubmitSQL(`SELECT 'B', fno INTO ANSWER R
WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris')
AND ('A', fno) IN ANSWER R CHOOSE 1`)
	if err != nil {
		t.Fatal(err)
	}
	if r := waitResult(t, ch1); r.Status != "answered" || r.Tuples[0] != "R(A, 777)" {
		t.Fatalf("r1 = %+v", r)
	}
	if r := waitResult(t, ch2); r.Status != "answered" {
		t.Fatalf("r2 = %+v", r)
	}
	// Bad scripts surface errors.
	if err := c.Load("GARBAGE;"); err == nil {
		t.Fatal("bad script must fail")
	}
}

// TestClientTokenText pins the idempotency token format, <prefix>-<hex
// sequence>, and that the sequence advances per token.
func TestClientTokenText(t *testing.T) {
	c := &Client{tokenPrefix: "18f3a2c4e5b6d7a8-1f"}
	for seq := uint64(1); seq <= 300; seq++ {
		want := fmt.Sprintf("%s-%x", c.tokenPrefix, seq)
		if got := c.nextToken(); got != want {
			t.Fatalf("token %d = %q, want %q", seq, got, want)
		}
	}
	c.tokenSeq.Store(1<<64 - 2)
	if got, want := c.nextToken(), c.tokenPrefix+"-ffffffffffffffff"; got != want {
		t.Fatalf("token = %q, want %q", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { _ = c.nextToken() }); n > 1 {
		t.Fatalf("nextToken allocates %.0f times, want 1 (the token string)", n)
	}
}
