package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"entangle/internal/engine"
	"entangle/internal/memdb"
)

// TestServerNoGoroutinePerQuery pins the single delivery path: parked
// queries, subscriptions and their tokens cost outbox and replay entries,
// not goroutines, and Shutdown still returns promptly with all of them
// pending.
func TestServerNoGoroutinePerQuery(t *testing.T) {
	const queries, subs = 2000, 50
	s, addr := startServerWith(t, engine.Config{Mode: engine.Incremental, Shards: 2},
		func(s *Server) { s.MaxInFlight = 4096 })
	conns := []*rawConn{rawDial(t, addr), rawDial(t, addr)}
	for _, c := range conns {
		c.send(Request{Op: "stats"})
		if r := c.recv(); r.Type != "stats" {
			t.Fatalf("stats reply = %+v", r)
		}
	}
	base := runtime.NumGoroutine()

	for i := 0; i < queries; i++ {
		c := conns[i%2]
		// Partnerless: each query waits for a G<i>(Other, …) head forever.
		c.send(Request{Op: "ir", Token: fmt.Sprintf("q-%d", i),
			IR: fmt.Sprintf("{G%d(Other, x)} G%d(Me, x) :- F(x, Paris)", i, i)})
		if r := c.recv(); r.Type != "ack" {
			t.Fatalf("query %d: reply %+v", i, r)
		}
	}
	for i := 0; i < subs; i++ {
		c := conns[i%2]
		c.send(Request{Op: "subscribe", Token: fmt.Sprintf("s-%d", i), Queries: []BatchQuery{
			{IR: fmt.Sprintf("{S%d(Other, x)} S%d(Me, x) :- F(x, Paris)", i, i)},
			{IR: fmt.Sprintf("{S%d(Other, y)} S%d(You, y) :- F(y, Rome)", i, i)},
		}})
		if r := c.recv(); r.Type != "batch" || len(r.Items) != 2 || r.Items[0].ID == 0 || r.Items[1].ID == 0 {
			t.Fatalf("subscription %d: reply %+v", i, r)
		}
	}
	if st := s.Engine.Stats(); st.Pending != queries+2*subs {
		t.Fatalf("pending = %d, want %d", st.Pending, queries+2*subs)
	}
	if extra := runtime.NumGoroutine() - base; extra >= 20 {
		t.Fatalf("%d goroutines above the baseline with %d queries and %d subscriptions parked", extra, queries, subs)
	}

	done := make(chan struct{})
	go func() {
		s.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung with parked queries")
	}
}

// TestServerTokenWindowBounded sends tokened singles and tokened
// subscriptions, 3× the window size of each, and checks the one shared
// window still holds exactly maxTrackedTokens entries.
func TestServerTokenWindowBounded(t *testing.T) {
	const n = 3 * maxTrackedTokens
	s, addr := startServerWith(t, engine.Config{Mode: engine.Incremental, Shards: 1}, nil)
	c := rawDial(t, addr)
	sendErr := make(chan error, 1)
	go func() {
		w := bufio.NewWriter(c.conn)
		enc := json.NewEncoder(w)
		for i := 0; i < n; i++ {
			// A query with no postcondition answers on arrival, so each
			// request costs one reply and one result and no pending state.
			if err := enc.Encode(Request{Op: "ir", Token: fmt.Sprintf("q-%d", i),
				IR: fmt.Sprintf("{} W(A%d, x) :- F(x, Rome)", i)}); err != nil {
				sendErr <- err
				return
			}
			if err := enc.Encode(Request{Op: "subscribe", Token: fmt.Sprintf("s-%d", i),
				Queries: []BatchQuery{{IR: fmt.Sprintf("{} V(A%d, x) :- F(x, Rome)", i)}}}); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- w.Flush()
	}()
	counts := map[string]int{}
	for i := 0; i < 4*n; i++ {
		counts[c.recv().Type]++
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	if counts["ack"] != n || counts["batch"] != n || counts["result"] != 2*n {
		t.Fatalf("replies = %v, want %d acks, %d batches, %d results", counts, n, n, 2*n)
	}
	s.repMu.Lock()
	entries, ring := len(s.replays), len(s.ring)
	s.repMu.Unlock()
	if entries != maxTrackedTokens || ring != maxTrackedTokens {
		t.Fatalf("token window holds %d entries (ring %d), want %d", entries, ring, maxTrackedTokens)
	}

	// The newest token still replays without re-admission; the oldest aged
	// out and admits afresh.
	submitted := s.Engine.Stats().Submitted
	c.send(Request{Op: "subscribe", Token: fmt.Sprintf("s-%d", n-1),
		Queries: []BatchQuery{{IR: fmt.Sprintf("{} V(A%d, x) :- F(x, Rome)", n-1)}}})
	if r := c.recv(); r.Type != "batch" {
		t.Fatalf("re-sent subscription: %+v", r)
	}
	if r := c.recv(); r.Type != "result" || r.Status != "answered" {
		t.Fatalf("re-sent subscription result: %+v", r)
	}
	if got := s.Engine.Stats().Submitted; got != submitted {
		t.Fatalf("re-sent newest token admitted again: submitted %d → %d", submitted, got)
	}
	c.send(Request{Op: "ir", Token: "q-0", IR: "{} W(A0, x) :- F(x, Rome)"})
	if r := c.recv(); r.Type != "ack" {
		t.Fatalf("re-sent oldest token: %+v", r)
	}
	if got := s.Engine.Stats().Submitted; got != submitted+1 {
		t.Fatalf("aged-out token not admitted afresh: submitted %d → %d", submitted, got)
	}
}

// smallBufListener shrinks every accepted connection's kernel send buffer,
// so a client that stops reading blocks the server's writes after a few
// kilobytes instead of megabytes.
type smallBufListener struct{ net.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(4096)
	}
	return c, err
}

// TestFloodingTokenedSubmitsBoundedOutbox: a client that floods tokened ir
// submissions and never reads a reply must not grow its outbox past the
// request loop's bound, and the write deadline must tear the connection
// down. TestSlowClientDoesNotWedgeServer covers the same for stats replies;
// this covers the submission path, where every request also touches the
// token window and the in-flight cap.
func TestFloodingTokenedSubmitsBoundedOutbox(t *testing.T) {
	const maxInFlight = 64
	db := memdb.New()
	db.MustCreateTable("F", "fno", "dest")
	db.MustInsert("F", "122", "Paris")
	s := New(engine.New(db, engine.Config{Mode: engine.Incremental, Shards: 1}))
	s.WriteTimeout = 150 * time.Millisecond
	s.MaxInFlight = maxInFlight
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(smallBufListener{l})
	t.Cleanup(func() {
		s.Shutdown()
		l.Close()
	})

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(4096)
	flooding := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			req := fmt.Sprintf(`{"op":"ir","token":"f-%d","ir":"{Fl(Other, x)} Fl(Me%d, x) :- F(x, Paris)"}`+"\n", i, i)
			conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
			if _, err := conn.Write([]byte(req)); err != nil {
				flooding <- err
				return
			}
		}
	}()

	peak := 0
	deadline := time.After(10 * time.Second)
	for {
		select {
		case err := <-flooding:
			t.Logf("flood ended: %v; peak outbox %d", err, peak)
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatalf("flood writer timed out: the server stopped reading but never tore the connection down")
			}
			if peak > 2*maxInFlight+1 {
				t.Fatalf("outbox peaked at %d replies, want ≤ %d", peak, 2*maxInFlight+1)
			}
			return
		case <-deadline:
			t.Fatalf("flood still running after 10s: the write deadline never tore the connection down (peak outbox %d)", peak)
		case <-time.After(time.Millisecond):
		}
		s.mu.Lock()
		for _, ob := range s.conns {
			ob.mu.Lock()
			peak = max(peak, len(ob.queue))
			ob.mu.Unlock()
		}
		s.mu.Unlock()
	}
}
