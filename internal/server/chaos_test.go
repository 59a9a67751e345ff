package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"entangle/internal/engine"
	"entangle/internal/fault"
	"entangle/internal/memdb"
)

// startServerWith is startServer with a pre-Serve server mutator (write
// timeouts, in-flight caps, injectors).
func startServerWith(t *testing.T, cfg engine.Config, mod func(*Server)) (*Server, string) {
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
	if mod != nil {
		mod(s)
	}
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

// rawConn speaks the wire protocol directly, bypassing the Client's
// resilience machinery — for pinning server-side behavior.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	enc  *json.Encoder
	rd   *bufio.Reader
}

func rawDial(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, conn: conn, enc: json.NewEncoder(conn), rd: bufio.NewReader(conn)}
}

func (r *rawConn) send(req Request) {
	r.t.Helper()
	if err := r.enc.Encode(req); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rawConn) recv() Response {
	r.t.Helper()
	r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := r.rd.ReadString('\n')
	if err != nil {
		r.t.Fatalf("recv: %v", err)
	}
	var resp Response
	if err := json.Unmarshal([]byte(line), &resp); err != nil {
		r.t.Fatalf("recv %q: %v", line, err)
	}
	return resp
}

// TestChaosTokenDedup pins the idempotent re-submission contract at the
// wire level: a duplicate token never re-admits, re-acks the original
// engine-assigned id, and re-delivers the terminal result — including on a
// different (reconnected) connection.
func TestChaosTokenDedup(t *testing.T) {
	s, addr := startServerWith(t, engine.Config{Mode: engine.Incremental, Shards: 1}, nil)
	c1 := rawDial(t, addr)

	c1.send(Request{Op: "ir", IR: "{T(J, x)} T(K, x) :- F(x, Rome)", Token: "tok-1"})
	ack1 := c1.recv()
	if ack1.Type != "ack" || ack1.Token != "tok-1" {
		t.Fatalf("first ack = %+v", ack1)
	}
	// Re-send the same token on the same connection: same id, no re-admission.
	c1.send(Request{Op: "ir", IR: "{T(J, x)} T(K, x) :- F(x, Rome)", Token: "tok-1"})
	ack1b := c1.recv()
	if ack1b.Type != "ack" || ack1b.ID != ack1.ID {
		t.Fatalf("dup ack = %+v, want id %d", ack1b, ack1.ID)
	}
	if got := s.Engine.Stats().Submitted; got != 1 {
		t.Fatalf("engine admitted %d queries for one token, want 1", got)
	}

	// The partner coordinates the pair. c1 then sees the partner's ack plus
	// THREE results: one per query, plus a second copy of tok-1's result
	// for the re-send, which attached c1 to tok-1's replay a second time.
	c1.send(Request{Op: "ir", IR: "{T(K, y)} T(J, y) :- F(y, Rome)", Token: "tok-2"})
	results := map[int]int{} // id → deliveries
	var ack2 Response
	for i := 0; i < 4; i++ {
		switch m := c1.recv(); m.Type {
		case "ack":
			ack2 = m
		case "result":
			if m.Status != "answered" {
				t.Fatalf("result = %+v", m)
			}
			results[int(m.ID)]++
		default:
			t.Fatalf("unexpected message %+v", m)
		}
	}
	if ack2.Token != "tok-2" {
		t.Fatalf("partner ack = %+v", ack2)
	}
	if results[int(ack1.ID)] != 2 || results[int(ack2.ID)] != 1 {
		t.Fatalf("deliveries = %v, want 2×id%d and 1×id%d", results, ack1.ID, ack2.ID)
	}
	if got := s.Engine.Stats().Submitted; got != 2 {
		t.Fatalf("engine admitted %d, want 2", got)
	}

	// A fresh connection re-sending tok-1 — the reconnect-after-lost-ack
	// path — gets the original id and the cached result, still without
	// re-admission.
	c2 := rawDial(t, addr)
	c2.send(Request{Op: "ir", IR: "{T(J, x)} T(K, x) :- F(x, Rome)", Token: "tok-1"})
	if ack := c2.recv(); ack.Type != "ack" || ack.ID != ack1.ID {
		t.Fatalf("cross-conn dup ack = %+v, want id %d", ack, ack1.ID)
	}
	if res := c2.recv(); res.Type != "result" || res.ID != ack1.ID || res.Status != "answered" {
		t.Fatalf("cross-conn re-delivery = %+v", res)
	}
	if got := s.Engine.Stats().Submitted; got != 2 {
		t.Fatalf("engine admitted %d after cross-conn dup, want 2", got)
	}
}

// TestChaosClientSelfHealing replays seeded connection-fault plans under a
// reconnecting client and asserts the exactly-one-outcome contract: every
// submission ends in exactly one of {typed error, exactly one response on
// its result channel} — never a hang, never a duplicate.
func TestChaosClientSelfHealing(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			_, addr := startServerWith(t, engine.Config{Mode: engine.Incremental, Shards: 1}, nil)
			var dialSeq atomic.Int64
			dialer := func(a string) (net.Conn, error) {
				conn, err := net.Dial("tcp", a)
				if err != nil {
					return nil, err
				}
				seq := dialSeq.Add(1)
				in := fault.Plan(seed*31+seq, 3).WithDelay(200 * time.Microsecond)
				if seq == 1 {
					// Guarantee at least one mid-stream drop per seed so the
					// healing path always runs.
					in.At(fault.OpConnRead, 150+seed, fault.Drop)
				}
				return fault.WrapConn(conn, in), nil
			}
			c, err := DialWith(addr, DialOptions{
				Reconnect:   true,
				OpTimeout:   2 * time.Second,
				RetryBudget: 8,
				BackoffMin:  time.Millisecond,
				BackoffMax:  10 * time.Millisecond,
				JitterSeed:  seed,
				Dialer:      dialer,
			})
			if err != nil {
				t.Fatal(err)
			}

			type sub struct {
				ch  <-chan Response
				err error
			}
			var subs []sub
			for i := 1; i <= 12; i++ {
				for _, irText := range []string{
					fmt.Sprintf("{C%d(J, x)} C%d(K, x) :- F(x, Rome)", i, i),
					fmt.Sprintf("{C%d(K, y)} C%d(J, y) :- F(y, Rome)", i, i),
				} {
					_, ch, err := c.SubmitIR(irText)
					if err != nil {
						// Outcome leg 1: a typed submission error.
						if !errors.Is(err, ErrConnLost) && !errors.Is(err, ErrOpTimeout) &&
							!errors.Is(err, ErrClientClosed) {
							t.Fatalf("untyped submit error: %v", err)
						}
						subs = append(subs, sub{err: err})
						continue
					}
					subs = append(subs, sub{ch: ch})
				}
			}
			ls := c.LocalStats()
			if ls.ConnsLost < 1 || ls.Reconnects < 1 {
				t.Fatalf("healing never exercised: %+v", ls)
			}
			// Closing fails any still-pending waiter with a typed conn-lost
			// result; nothing may hang or deliver twice.
			c.Close()
			delivered, failed, errored := 0, 0, 0
			for i, su := range subs {
				if su.err != nil {
					errored++
					continue
				}
				select {
				case r := <-su.ch:
					if r.Status == "answered" {
						delivered++
					} else if r.Code == CodeConnLost {
						if !errors.Is(r.Err(), ErrConnLost) {
							t.Fatalf("conn-lost result not errors.Is-able: %v", r.Err())
						}
						failed++
					} else {
						t.Fatalf("sub %d unexpected outcome: %+v", i, r)
					}
					select {
					case r2 := <-su.ch:
						t.Fatalf("sub %d got a second response: %+v", i, r2)
					default:
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("sub %d: no outcome — exactly-one-outcome violated", i)
				}
			}
			if delivered+failed+errored != len(subs) {
				t.Fatalf("outcomes %d+%d+%d ≠ %d submissions", delivered, failed, errored, len(subs))
			}
			t.Logf("seed %d: %d answered, %d conn-lost, %d submit errors, client %+v",
				seed, delivered, failed, errored, c.LocalStats())

			// Post-fault recovery: a clean client coordinates immediately.
			clean, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer clean.Close()
			_, ch1, err := clean.SubmitIR("{Post(J, x)} Post(K, x) :- F(x, Rome)")
			if err != nil {
				t.Fatal(err)
			}
			_, ch2, err := clean.SubmitIR("{Post(K, y)} Post(J, y) :- F(y, Rome)")
			if err != nil {
				t.Fatal(err)
			}
			if r := waitResult(t, ch1); r.Status != "answered" {
				t.Fatalf("post-chaos pair: %+v", r)
			}
			if r := waitResult(t, ch2); r.Status != "answered" {
				t.Fatalf("post-chaos pair: %+v", r)
			}
		})
	}
}

// TestChaosOverloadShedding forces both overload layers — the engine's
// MaxPending cap and the connection's in-flight cap — and asserts the shed
// replies carry the typed code end to end.
func TestChaosOverloadShedding(t *testing.T) {
	t.Run("engine-cap", func(t *testing.T) {
		_, addr := startServerWith(t, engine.Config{Mode: engine.Incremental, Shards: 1, MaxPending: 2}, nil)
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 1; i <= 2; i++ {
			if _, _, err := c.SubmitIR(fmt.Sprintf("{P%d(A, x)} P%d(B, x) :- F(x, Rome)", i, i)); err != nil {
				t.Fatalf("submit %d under cap: %v", i, err)
			}
		}
		_, _, err = c.SubmitIR("{P3(A, x)} P3(B, x) :- F(x, Rome)")
		if !errors.Is(err, engine.ErrOverloaded) {
			t.Fatalf("submit past engine cap: err = %v, want engine.ErrOverloaded via reply code", err)
		}
		// Batches shed whole with the same typed code.
		if _, err := c.SubmitBatch([]BatchQuery{
			{IR: "{Q1(A, x)} Q1(B, x) :- F(x, Rome)"},
			{IR: "{Q2(A, x)} Q2(B, x) :- F(x, Rome)"},
		}); !errors.Is(err, engine.ErrOverloaded) {
			t.Fatalf("batch past engine cap: err = %v, want engine.ErrOverloaded", err)
		}
	})
	t.Run("conn-cap", func(t *testing.T) {
		_, addr := startServerWith(t, engine.Config{Mode: engine.Incremental, Shards: 1},
			func(s *Server) { s.MaxInFlight = 2 })
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 1; i <= 2; i++ {
			if _, _, err := c.SubmitIR(fmt.Sprintf("{P%d(A, x)} P%d(B, x) :- F(x, Rome)", i, i)); err != nil {
				t.Fatalf("submit %d under cap: %v", i, err)
			}
		}
		if _, _, err := c.SubmitIR("{P3(A, x)} P3(B, x) :- F(x, Rome)"); !errors.Is(err, engine.ErrOverloaded) {
			t.Fatalf("submit past conn cap: err = %v, want engine.ErrOverloaded", err)
		}
		if _, err := c.SubmitBatch([]BatchQuery{
			{IR: "{Q1(A, x)} Q1(B, x) :- F(x, Rome)"},
		}); !errors.Is(err, engine.ErrOverloaded) {
			t.Fatalf("batch past conn cap: err = %v, want engine.ErrOverloaded", err)
		}
	})
}

// TestChaosMidBulkDrop cuts the connection partway through a chunked bulk
// upload: the bulk fails with a typed transport error (never a hang), the
// reconnected client keeps working, and the server serves other clients
// throughout.
func TestChaosMidBulkDrop(t *testing.T) {
	_, addr := startServerWith(t, engine.Config{Mode: engine.SetAtATime, Shards: 1}, nil)
	var dialSeq atomic.Int64
	dialer := func(a string) (net.Conn, error) {
		conn, err := net.Dial("tcp", a)
		if err != nil {
			return nil, err
		}
		if dialSeq.Add(1) == 1 {
			// First connection dies at byte 3000 of the upload stream —
			// mid-chunk, mid-frame.
			return fault.WrapConn(conn, fault.New(9).At(fault.OpConnWrite, 3000, fault.Drop)), nil
		}
		return conn, nil
	}
	c, err := DialWith(addr, DialOptions{
		Reconnect: true, OpTimeout: 2 * time.Second,
		BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond,
		JitterSeed: 9, Dialer: dialer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	queries := make([]BatchQuery, 100)
	for i := range queries {
		queries[i] = BatchQuery{IR: fmt.Sprintf("{B%d(A, x)} B%d(B, x) :- F(x, Rome)", i, i)}
	}
	_, err = c.SubmitBulkChunked(queries, 10, false)
	if !errors.Is(err, ErrConnLost) && !errors.Is(err, ErrOpTimeout) {
		t.Fatalf("mid-bulk drop: err = %v, want typed ErrConnLost/ErrOpTimeout", err)
	}
	if c.LocalStats().ConnsLost < 1 {
		t.Fatalf("connection drop not observed: %+v", c.LocalStats())
	}

	// The same client heals: a tokened single submission goes through on
	// the reconnected (clean) connection.
	_, _, err = c.SubmitIR("{After(A, x)} After(B, x) :- F(x, Rome)")
	if err != nil {
		t.Fatalf("submit after healed bulk drop: %v", err)
	}
	// And the server is not wedged for anyone else.
	clean, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	if err := clean.Flush(); err != nil {
		t.Fatalf("post-drop flush: %v", err)
	}
}
