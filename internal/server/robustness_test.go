package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"entangle/internal/engine"
)

func TestServerPrepareExecute(t *testing.T) {
	_, addr := startServer(t, engine.Config{Mode: engine.Incremental})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	st, err := c.PrepareIR("{R('$2', x)} R('$1', x) :- F(x, '$3')")
	if err != nil {
		t.Fatal(err)
	}
	if st.NumParams() != 3 {
		t.Fatalf("NumParams = %d, want 3", st.NumParams())
	}
	_, ch1, err := st.Execute("Kramer", "Jerry", "Paris")
	if err != nil {
		t.Fatal(err)
	}
	_, ch2, err := st.Execute("Jerry", "Kramer", "Paris")
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := waitResult(t, ch1), waitResult(t, ch2)
	if r1.Status != "answered" || r2.Status != "answered" {
		t.Fatalf("statuses %s/%s (%s/%s)", r1.Status, r2.Status, r1.Detail, r2.Detail)
	}
	// Repeat executions keep working (and exercise the plan cache).
	_, ch3, err := st.Execute("A", "B", "Rome")
	if err != nil {
		t.Fatal(err)
	}
	_, ch4, err := st.Execute("B", "A", "Rome")
	if err != nil {
		t.Fatal(err)
	}
	if r := waitResult(t, ch3); r.Status != "answered" {
		t.Fatalf("r3 = %+v", r)
	}
	if r := waitResult(t, ch4); r.Status != "answered" {
		t.Fatalf("r4 = %+v", r)
	}

	// Wrong binding count fails the execute, not the connection.
	if _, _, err := st.Execute("just-one"); err == nil {
		t.Fatal("binding-count mismatch must fail")
	}
	// Unknown statement ids are rejected.
	bogus := &ClientStmt{c: c, id: 999, params: 0}
	if _, _, err := bogus.Execute(); err == nil {
		t.Fatal("unknown statement must fail")
	}
	// Prepare surfaces template errors.
	if _, err := c.PrepareIR("{R(J, x)} R('$1', x) :- F(x, '$3')"); err == nil {
		t.Fatal("gapped placeholders must fail prepare")
	}
}

// TestServerOversizedRequest pins the read-loop error path: a request line
// over the scanner's 1 MB buffer stops the read loop, and the server must
// tell the client why (a final error message) instead of dropping the
// connection silently.
func TestServerOversizedRequest(t *testing.T) {
	_, addr := startServer(t, engine.Config{Mode: engine.Incremental})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	huge := `{"op":"load","sql":"` + strings.Repeat("x", 2<<20) + `"}` + "\n"
	if _, err := conn.Write([]byte(huge)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("no reply to oversized request: %v", err)
	}
	var resp Response
	if err := json.Unmarshal([]byte(line), &resp); err != nil {
		t.Fatalf("bad reply %q: %v", line, err)
	}
	if resp.Type != "error" || !strings.Contains(resp.Error, "too long") {
		t.Fatalf("reply = %+v, want a read error mentioning the oversized line", resp)
	}
}

// TestServerShutdownWithPendingQueries: a query with no coordination
// partner leaves a result callback parked on its handle; Shutdown must
// return with those callbacks still pending instead of hanging on its own
// WaitGroup.
func TestServerShutdownWithPendingQueries(t *testing.T) {
	s, addr := startServer(t, engine.Config{Mode: engine.Incremental})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Partnerless: pends forever (no staleness configured).
	for i := 0; i < 4; i++ {
		irText := "{Rp(Other, x)} Rp(Me, x) :- F(x, Paris)"
		if _, _, err := c.SubmitIR(irText); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	go func() {
		s.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung with pending queries")
	}
}

// TestSlowClientDoesNotWedgeServer pins the write-deadline fix: a client
// that stops draining its replies fills the kernel buffers, trips the
// server's write deadline, and gets its connection torn down — while a
// healthy client on another connection keeps coordinating and Shutdown
// still returns promptly.
func TestSlowClientDoesNotWedgeServer(t *testing.T) {
	s, addr := startServerWith(t, engine.Config{Mode: engine.Incremental, Shards: 1},
		func(s *Server) { s.WriteTimeout = 150 * time.Millisecond })

	// The slow client floods stats requests and never reads a reply.
	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	flooding := make(chan struct{})
	go func() {
		defer close(flooding)
		req := []byte(`{"op":"stats"}` + "\n")
		for i := 0; i < 5000; i++ {
			slow.SetWriteDeadline(time.Now().Add(2 * time.Second))
			if _, err := slow.Write(req); err != nil {
				return // server tore the connection down — expected
			}
		}
	}()

	// A healthy client on its own connection is unaffected.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, ch1, err := c.SubmitIR("{H(J, x)} H(K, x) :- F(x, Rome)")
	if err != nil {
		t.Fatal(err)
	}
	_, ch2, err := c.SubmitIR("{H(K, y)} H(J, y) :- F(y, Rome)")
	if err != nil {
		t.Fatal(err)
	}
	if r := waitResult(t, ch1); r.Status != "answered" {
		t.Fatalf("healthy client pair: %+v", r)
	}
	if r := waitResult(t, ch2); r.Status != "answered" {
		t.Fatalf("healthy client pair: %+v", r)
	}
	select {
	case <-flooding:
	case <-time.After(10 * time.Second):
		t.Fatal("flood writer still running: server never tore down the stuck connection")
	}

	// Shutdown must not wait on the wedged connection's writes.
	done := make(chan struct{})
	go func() {
		s.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung behind the slow client")
	}
}

// TestServerPreparedStatementCap prepares maxPreparedStmts + 100 statements
// on one connection: the extra prepares fail with an error naming the cap,
// the connection stays usable, no statement id beyond the cap is issued,
// and an early statement still executes.
func TestServerPreparedStatementCap(t *testing.T) {
	_, addr := startServer(t, engine.Config{Mode: engine.Incremental})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var first *ClientStmt
	failed := 0
	for i := 0; i < maxPreparedStmts+100; i++ {
		st, err := c.PrepareIR(fmt.Sprintf("{} W%d('$1', x) :- Flights(x, Rome)", i))
		if err != nil {
			if !strings.Contains(err.Error(), fmt.Sprint(maxPreparedStmts)) {
				t.Fatalf("prepare %d: error %q does not name the cap", i, err)
			}
			failed++
			continue
		}
		if i >= maxPreparedStmts || st.id > maxPreparedStmts {
			t.Fatalf("prepare %d succeeded with statement id %d past the cap %d", i, st.id, maxPreparedStmts)
		}
		if first == nil {
			first = st
		}
	}
	if failed != 100 {
		t.Fatalf("%d prepares failed, want 100", failed)
	}
	_, ch, err := first.Execute("A")
	if err != nil {
		t.Fatal(err)
	}
	if r := waitResult(t, ch); r.Status != "answered" {
		t.Fatalf("early statement after the cap: %+v", r)
	}
}
