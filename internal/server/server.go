// Package server exposes the D3C engine over TCP with a JSON line protocol,
// mirroring the paper's system structure (Section 5.1): a server accepting
// connections and entangled queries from many concurrent clients, answering
// asynchronously once coordination succeeds or fails.
//
// Protocol: each line is one JSON object.
//
//	client → server: {"op":"sql","sql":"SELECT …"}        submit entangled SQL
//	                 {"op":"ir","ir":"{R(J,x)} R(K,x) :- F(x,P)"}  submit IR text
//	                 {"op":"submit_batch","queries":[{"sql":"…"},{"ir":"…"}]}
//	                                                      submit many queries in one engine batch
//	                 {"op":"submit_bulk","queries":[…],"defer_flush":true}
//	                                                      unordered bulk load (set-at-a-time per batch)
//	                 {"op":"subscribe","queries":[…],"token":"…"}
//	                                                      submit a query set, stream every result back
//	                 {"op":"prepare","sql":"SELECT …"}    prepare a statement template
//	                 {"op":"prepare","ir":"{R(J,x)} R('$1',x) :- F(x,'$2')"}
//	                                                      … or from IR text
//	                 {"op":"execute","stmt":3,"bindings":["Karl","Paris"]}
//	                                                      submit a prepared statement
//	                 {"op":"load","sql":"CREATE TABLE …"} run a DDL/DML script
//	                 {"op":"flush"}                       force a set-at-a-time round
//	                 {"op":"checkpoint"}                  durably checkpoint (durable engines)
//	                 {"op":"stats"}                       engine counters
//	server → client: {"type":"ack","id":7}                submission accepted
//	                 {"type":"error","error":"…"}         submission failed
//	                 {"type":"error","error":"…","code":"overloaded"}
//	                                                      typed failure (code: "overloaded" | "wal_poisoned")
//	                 {"type":"batch","items":[{"id":7},{"error":"…"}]}
//	                                                      per-query batch outcome, in input order
//	                 {"type":"prepared","stmt":3,"params":2}
//	                                                      statement prepared; params counts its placeholders
//	                 {"type":"result","id":7,"status":"answered","tuples":["R(K, 122)"]}
//	                 {"type":"stats","stats":{…}}
//
// # Delivery
//
// Every request gets exactly one in-order reply. A submission's reply is its
// ack ("ack" for a single query, "batch" for a query set) or an "error";
// the terminal "result" of each admitted query follows later, asynchronously,
// once coordination succeeds or fails. Results are pushed by engine
// callbacks (engine.Handle.Notify) into the connection's outbox, the queue
// of everything owed to that connection; one writer per connection drains
// it, coalescing whatever has accumulated into one write. No goroutine waits
// on any single query. The request loop stops reading while the outbox is
// over its bound, so a client that stops draining cannot grow it.
//
// # Resilience
//
// Single submissions (sql / ir / execute) may carry a client-generated
// "token", echoed back on the ack and remembered server-side: a reconnecting
// client that never saw its ack re-sends the same request with the same
// token, and the server suppresses the duplicate admission, re-acks the
// original engine-assigned id, and re-delivers the terminal result on the
// new connection. Error replies carry a machine-readable "code" for typed
// failures (engine overload, WAL poisoning), each write runs under the
// server's write deadline (a reader that stops draining gets its connection
// torn down instead of holding its outbox forever), and per-connection
// in-flight submissions are capped (shed with the "overloaded" code). Stats
// replies include fault-injector counters when a test injector is installed.
//
// A submit_batch reply carries one item per input query: an engine-assigned
// id for each accepted query (whose single result later arrives as a normal
// "result" message) or a per-query error (parse/validation failures do not
// fail the rest of the batch). Accepted queries are admitted through the
// engine's batched fast path: one routing pass and one lock acquisition per
// touched shard for the whole batch.
//
// subscribe admits a query set exactly like submit_batch (same reply shape,
// same engine fast path) and streams every terminal result back as ordinary
// "result" messages — one multiplexed push channel for the whole set,
// instead of the client tracking one pending reply per query. A tokened
// subscription, like a tokened single submission, is remembered with its
// reply and every result so far, and outlives the connection. A client that
// reconnects re-sends the subscribe with the same token: the server does not
// re-admit — it replays the original batch reply and the full result stream
// (cached results immediately, the rest as they arrive) on the new
// connection, and the client dedupes by query id, preserving exactly one
// outcome per query end to end. Both kinds of token share one bounded
// window.
//
// submit_bulk has the same request/reply shape but loads the accepted
// queries through the engine's unordered bulk path: the batch is ingested
// and coordinated set-at-a-time (no per-query incremental evaluation; see
// Engine.SubmitBulk for the ordering caveat). defer_flush skips the
// coordination round after ingest, so a load larger than the 1 MB request
// line limit can be sent as several deferred submit_bulk requests followed
// by one flush (Client.SubmitBulkChunked).
//
// load executes through the engine (Engine.Load), so on a durable engine
// the script is logged write-ahead and survives a crash; checkpoint forces
// a durable snapshot and fails on engines without a data directory.
//
// prepare parses and validates a query template once — entangled SQL or IR
// text, with placeholders written as quoted '$1'..'$K' literals — and
// returns a connection-scoped statement id plus the placeholder count.
// execute binds the placeholders ("bindings", in order) and submits the
// resulting query exactly like sql/ir: an ack with the engine-assigned id,
// then the single result message. Statement ids are per connection and
// released when it closes; a connection holds at most maxPreparedStmts of
// them, and a prepare beyond that fails with an error. Repeated executes of
// one statement share a plan-cache shape, so the combined query compiles at
// most once server-side.
package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"entangle/internal/engine"
	"entangle/internal/fault"
	"entangle/internal/ir"
)

// Request is a client → server message.
type Request struct {
	Op      string       `json:"op"`
	SQL     string       `json:"sql,omitempty"`
	IR      string       `json:"ir,omitempty"`
	Queries []BatchQuery `json:"queries,omitempty"` // submit_batch / submit_bulk payload
	// DeferFlush (submit_bulk only) skips the coordination round after the
	// bulk ingest; closed components wait for the next flush.
	DeferFlush bool `json:"defer_flush,omitempty"`
	// Stmt names a prepared statement (execute only; connection-scoped id
	// from a prior prepare reply). Bindings are its placeholder values, in
	// $1..$K order.
	Stmt     int      `json:"stmt,omitempty"`
	Bindings []string `json:"bindings,omitempty"`
	// Token is a client-generated idempotency key for single submissions
	// (sql / ir / execute): re-sending a request with the same token after a
	// reconnect cannot admit the query twice (see the Resilience section of
	// the package docs).
	Token string `json:"token,omitempty"`
}

// BatchQuery is one query of a submit_batch request: entangled SQL or IR
// text (exactly one should be set; SQL wins if both are).
type BatchQuery struct {
	SQL string `json:"sql,omitempty"`
	IR  string `json:"ir,omitempty"`
}

// BatchItem is the per-query outcome of a submit_batch request.
type BatchItem struct {
	ID    ir.QueryID `json:"id,omitempty"`
	Error string     `json:"error,omitempty"`
}

// Response is a server → client message.
type Response struct {
	Type   string        `json:"type"`
	ID     ir.QueryID    `json:"id,omitempty"`
	Status string        `json:"status,omitempty"`
	Tuples []string      `json:"tuples,omitempty"`
	Detail string        `json:"detail,omitempty"`
	Error  string        `json:"error,omitempty"`
	Stats  *engine.Stats `json:"stats,omitempty"`
	Items  []BatchItem   `json:"items,omitempty"` // batch reply, in input order
	// Stmt and Params carry a prepare reply ("prepared"): the
	// connection-scoped statement id and its placeholder count.
	Stmt   int `json:"stmt,omitempty"`
	Params int `json:"params,omitempty"`
	// Code classifies typed failures machine-readably (see the Code*
	// constants); empty for untyped errors and all non-error replies.
	Code string `json:"code,omitempty"`
	// Token echoes the request's idempotency token on acks and error
	// replies, so a client can correlate a re-delivered reply after a
	// reconnect.
	Token string `json:"token,omitempty"`
	// Faults carries the server's fault-injector counters in stats replies,
	// when a test injector is installed (nil otherwise).
	Faults *fault.Stats `json:"faults,omitempty"`

	// answer is a result's engine answer, rendered into Tuples by the
	// connection writer, so engine callbacks never format under a shard lock.
	answer *ir.Answer
}

// Typed error codes carried by Response.Code.
const (
	// CodeOverloaded — the engine's MaxPending cap or the connection's
	// in-flight cap shed the submission.
	CodeOverloaded = "overloaded"
	// CodeWALPoisoned — the WAL is in its fail-stop state; durable
	// submissions fail fast until a checkpoint clears it.
	CodeWALPoisoned = "wal_poisoned"
	// CodeConnLost — synthesized client-side for results that can no longer
	// arrive because the connection carrying them died.
	CodeConnLost = "conn_lost"
)

// Err maps an error reply (or an error-status result) to a typed error:
// overload and WAL-poison codes unwrap to engine.ErrOverloaded and
// engine.ErrWALPoisoned, conn-lost results to ErrConnLost — all errors.Is
// matchable end to end. Non-error responses return nil.
func (r Response) Err() error {
	if r.Type != "error" && !(r.Type == "result" && r.Status == "error") {
		return nil
	}
	msg := r.Error
	if msg == "" {
		msg = r.Detail
	}
	switch r.Code {
	case CodeOverloaded:
		return fmt.Errorf("server: %s: %w", msg, engine.ErrOverloaded)
	case CodeWALPoisoned:
		return fmt.Errorf("server: %s: %w", msg, engine.ErrWALPoisoned)
	case CodeConnLost:
		return fmt.Errorf("%w: %s", ErrConnLost, msg)
	default:
		return fmt.Errorf("server: %s", msg)
	}
}

// errCode classifies an engine submission error for Response.Code.
func errCode(err error) string {
	switch {
	case errors.Is(err, engine.ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, engine.ErrWALPoisoned):
		return CodeWALPoisoned
	default:
		return ""
	}
}

// Server serves a D3C engine over a listener.
type Server struct {
	Engine *engine.Engine

	// WriteTimeout bounds each write to a connection. A write that cannot
	// complete within it — a reader that stopped draining, a dead peer —
	// tears the connection down, so one stuck client cannot hold its replies
	// and results forever. 0 picks the default (10s); negative disables the
	// deadline. Set before Serve.
	WriteTimeout time.Duration
	// MaxInFlight caps one connection's submissions whose results have not
	// yet been queued to it; excess submissions are shed with an
	// "overloaded" error reply. It also bounds the connection's outbox: the
	// request loop stops reading while more replies than this wait to be
	// written. 0 picks the default (1024); negative disables the cap (the
	// outbox bound stays at the default). Set before Serve.
	MaxInFlight int
	// Injector, when set (tests, chaos drills), reports fault-injection
	// counters in stats replies. The server does not install it anywhere —
	// wrap the listener or dialer with the fault package to actually inject.
	Injector *fault.Injector

	mu    sync.Mutex
	conns map[net.Conn]*outbox
	done  chan struct{}
	once  sync.Once
	// wg tracks every connection's request loop and writer, so Shutdown can
	// wait for them.
	wg sync.WaitGroup

	// replays is the token window: the replay of every tokened single
	// submission and subscription, keyed by kind and token. ring holds the
	// keys in insertion order; once it is full each new key evicts the
	// oldest.
	repMu   sync.Mutex
	replays map[replayKey]*replay
	ring    []replayKey
	ringPos int
}

// maxTrackedTokens bounds the token window; beyond it the oldest entries
// age out (a client re-sending a request 8k submissions later is asking for
// a fresh admission, which is the pre-token behavior).
const maxTrackedTokens = 8192

// maxPreparedStmts bounds one connection's prepared-statement table. There
// is no release op (statements die with their connection), so a prepare
// beyond the cap fails with an error and the connection stays open.
const maxPreparedStmts = 1024

// defaultMaxInFlight is MaxInFlight's default, and the outbox bound when
// the in-flight cap is disabled.
const defaultMaxInFlight = 1024

// outbox is one connection's reply queue: replies to its requests and the
// results owed to it, in the order they must be written. Engine callbacks
// append to it, possibly under a shard lock, so appending never blocks; the
// connection's writer goroutine is the only code that writes to the
// net.Conn.
type outbox struct {
	mu     sync.Mutex
	more   sync.Cond // the writer waits here for replies
	room   sync.Cond // the request loop waits here while the queue is full
	queue  []Response
	closed bool // nothing more is queued: the request loop ended or a write failed
	owed   int  // results attached to this connection and not yet queued
}

func newOutbox() *outbox {
	ob := &outbox{}
	ob.more.L = &ob.mu
	ob.room.L = &ob.mu
	return ob
}

// send queues replies; after close it drops them.
func (ob *outbox) send(rs ...Response) {
	ob.mu.Lock()
	if !ob.closed {
		ob.queue = append(ob.queue, rs...)
		ob.more.Signal()
	}
	ob.mu.Unlock()
}

// owe counts n more results attached to this connection.
func (ob *outbox) owe(n int) {
	ob.mu.Lock()
	ob.owed += n
	ob.mu.Unlock()
}

// result queues one owed result.
func (ob *outbox) result(r Response) {
	ob.owe(-1)
	ob.send(r)
}

// deliver is the engine callback for an untokened submission's handles.
func (ob *outbox) deliver(r engine.Result) { ob.result(resultResponse(r)) }

// overloaded reports whether n more results would pass the in-flight cap
// (limit ≤ 0: no cap).
func (ob *outbox) overloaded(n, limit int) bool {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	return limit > 0 && ob.owed+n > limit
}

// waitRoom blocks while more than limit replies are queued and reports
// whether the outbox is still open.
func (ob *outbox) waitRoom(limit int) bool {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	for len(ob.queue) > limit && !ob.closed {
		ob.room.Wait()
	}
	return !ob.closed
}

// close stops queueing; what is already queued is still written.
func (ob *outbox) close() {
	ob.mu.Lock()
	ob.closed = true
	ob.more.Signal()
	ob.room.Broadcast()
	ob.mu.Unlock()
}

// take waits for queued replies and swaps them out for spare, which the
// writer hands back empty. It returns nil once the outbox is closed and
// drained.
func (ob *outbox) take(spare []Response) []Response {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	for len(ob.queue) == 0 && !ob.closed {
		ob.more.Wait()
	}
	if len(ob.queue) == 0 {
		return nil
	}
	batch := ob.queue
	ob.queue = spare
	ob.room.Broadcast()
	return batch
}

// fail closes the outbox for good and drops what is queued, so replays
// still holding it after its connection died retain no buffers.
func (ob *outbox) fail() {
	ob.mu.Lock()
	ob.queue = nil
	ob.mu.Unlock()
	ob.close()
}

// resultResponse converts an engine result to its wire message; the writer
// renders the answer's tuples.
func resultResponse(r engine.Result) Response {
	return Response{Type: "result", ID: r.QueryID, Status: r.Status.String(), Detail: r.Detail, answer: r.Answer}
}

// replayKey names a tokened request in the token window.
type replayKey struct {
	subscribe bool
	token     string
}

// replay is the reply stream of one tokened request — a single submission
// or a subscription: the first reply (ack, batch or error), every result
// delivered so far, and the outboxes of the connections attached to it. It
// outlives any one connection. A re-send under the same token attaches its
// connection instead of admitting again: that outbox receives the first
// reply and the cached results at once, then the live tail.
type replay struct {
	mu      sync.Mutex
	decided bool // first and total are set
	first   Response
	total   int // results owed in all
	results []Response
	outs    []*outbox
}

// attach replays the stream so far to ob and, while results are still owed,
// feeds it the rest.
func (rp *replay) attach(ob *outbox) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.decided {
		ob.send(rp.first)
		ob.send(rp.results...)
		if len(rp.results) == rp.total {
			return
		}
		ob.owe(rp.total - len(rp.results))
	}
	// Drop the outboxes of connections that have gone away.
	live := rp.outs[:0]
	for _, o := range rp.outs {
		o.mu.Lock()
		if !o.closed {
			live = append(live, o)
		}
		o.mu.Unlock()
	}
	rp.outs = append(live, ob)
}

// decide records the first reply and how many results follow it, and sends
// the reply to every attached outbox.
func (rp *replay) decide(first Response, total int) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.decided, rp.first, rp.total = true, first, total
	for _, ob := range rp.outs {
		ob.send(first)
		ob.owe(total)
	}
	if total == 0 {
		rp.outs = nil
	}
}

// deliver is the engine callback for a tokened request's handles: it caches
// the result and queues it to every attached outbox.
func (rp *replay) deliver(r engine.Result) {
	resp := resultResponse(r)
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.results = append(rp.results, resp)
	for _, ob := range rp.outs {
		ob.result(resp)
	}
	if len(rp.results) == rp.total {
		rp.outs = nil
	}
}

// track returns the replay registered under key, or registers a new one
// with ob attached. dup reports an existing replay.
func (s *Server) track(key replayKey, ob *outbox) (rp *replay, dup bool) {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	if rp := s.replays[key]; rp != nil {
		return rp, true
	}
	if s.replays == nil {
		s.replays = make(map[replayKey]*replay)
		s.ring = make([]replayKey, 0, maxTrackedTokens)
	}
	rp = &replay{outs: []*outbox{ob}}
	s.replays[key] = rp
	if len(s.ring) < maxTrackedTokens {
		s.ring = append(s.ring, key)
	} else {
		delete(s.replays, s.ring[s.ringPos])
		s.ring[s.ringPos] = key
		s.ringPos = (s.ringPos + 1) % maxTrackedTokens
	}
	return rp, false
}

// New returns a server for the given engine.
func New(e *engine.Engine) *Server {
	return &Server{Engine: e, conns: make(map[net.Conn]*outbox), done: make(chan struct{})}
}

// Serve accepts connections until the listener is closed or Shutdown is
// called. It returns the listener's accept error.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.done:
				return nil
			default:
				return err
			}
		}
		s.mu.Lock()
		select {
		case <-s.done:
			// Shutdown already swept the conns map; don't admit a straggler
			// it would never close.
			s.mu.Unlock()
			conn.Close()
			continue
		default:
		}
		ob := newOutbox()
		s.conns[conn] = ob
		s.wg.Add(2)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.writeLoop(conn, ob)
		}()
		go func() {
			defer s.wg.Done()
			s.handle(conn, ob)
		}()
	}
}

// Shutdown closes all client connections and waits for their request loops
// and writers to finish. Results of queries still pending are dropped: the
// engine callbacks that would queue them find the outboxes closed. The
// caller should also close the listener passed to Serve.
func (s *Server) Shutdown() {
	s.once.Do(func() { close(s.done) })
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// writeLoop is the connection's only writer: it drains the outbox, encodes
// each drained burst into one reused buffer and sends it with one Write
// under the write deadline. A failed write, or a closed and drained outbox,
// closes the connection; a stuck reader or a dead peer makes it useless, and
// closing it also ends the request loop.
func (s *Server) writeLoop(conn net.Conn, ob *outbox) {
	defer func() {
		ob.fail()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	timeout := s.WriteTimeout
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	var tuples []string
	var spare []Response
	for {
		msgs := ob.take(spare)
		if msgs == nil {
			return
		}
		buf.Reset()
		for i := range msgs {
			r := &msgs[i]
			if r.answer != nil {
				tuples = tuples[:0]
				for _, tpl := range r.answer.Tuples {
					tuples = append(tuples, tpl.String())
				}
				r.Tuples = tuples
			}
			enc.Encode(r) // cannot fail: every field has a JSON encoding
			*r = Response{}
		}
		spare = msgs[:0]
		if timeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(timeout))
		}
		if _, err := conn.Write(buf.Bytes()); err != nil {
			return
		}
	}
}

func (s *Server) handle(conn net.Conn, ob *outbox) {
	// Once the request loop ends, the writer flushes what is queued and
	// closes the connection.
	defer ob.close()
	maxInFlight := s.MaxInFlight
	if maxInFlight == 0 {
		maxInFlight = defaultMaxInFlight
	}
	queueLimit := maxInFlight
	if queueLimit < 0 {
		queueLimit = defaultMaxInFlight
	}
	var one [1]*engine.Handle // a single submission's handle, passed as a set

	// submit runs one submission end to end: in-flight cap, token window,
	// admission, first reply, results. A token already in the window
	// attaches this connection to the original replay instead of admitting
	// again. admit returns the first reply (ack, batch or error) and the
	// admitted handles.
	submit := func(kind replayKey, n int, admit func() (Response, []*engine.Handle)) {
		if ob.overloaded(n, maxInFlight) {
			ob.send(Response{Type: "error", Code: CodeOverloaded, Token: kind.token,
				Error: "server: connection in-flight cap reached"})
			return
		}
		var rp *replay
		if kind.token != "" {
			var dup bool
			if rp, dup = s.track(kind, ob); dup {
				rp.attach(ob)
				return
			}
		}
		first, hs := admit()
		first.Token = kind.token
		var deliver func(engine.Result)
		if rp == nil {
			ob.send(first)
			ob.owe(len(hs))
			deliver = ob.deliver
		} else {
			rp.decide(first, len(hs))
			deliver = rp.deliver
		}
		for _, h := range hs {
			h.Notify(deliver)
		}
	}
	single := func(h *engine.Handle, err error) (Response, []*engine.Handle) {
		if err != nil {
			return Response{Type: "error", Error: err.Error(), Code: errCode(err)}, nil
		}
		one[0] = h
		return Response{Type: "ack", ID: h.ID}, one[:]
	}
	// many admits a batch-shaped payload through admitFn: every query is
	// parsed first so one bad query fails only its own item.
	many := func(queries []BatchQuery, admitFn func([]*ir.Query) ([]*engine.Handle, error)) (Response, []*engine.Handle) {
		items, qs, slots := s.parseQueries(queries)
		hs, err := admitFn(qs)
		if err != nil {
			return Response{Type: "error", Error: err.Error(), Code: errCode(err)}, nil
		}
		for j, h := range hs {
			items[slots[j]] = BatchItem{ID: h.ID}
		}
		return Response{Type: "batch", Items: items}, hs
	}

	// Prepared statements are connection-scoped: only this handler touches
	// the table, so it needs no lock, and the statements die with the
	// connection.
	stmts := make(map[int]*engine.Stmt)
	nextStmt := 0

	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for ob.waitRoom(queueLimit) && sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			ob.send(Response{Type: "error", Error: fmt.Sprintf("bad request: %v", err)})
			continue
		}
		switch req.Op {
		case "sql", "ir":
			submit(replayKey{token: req.Token}, 1, func() (Response, []*engine.Handle) {
				if req.Op == "sql" {
					return single(s.Engine.SubmitSQL(req.SQL))
				}
				q, err := ir.Parse(0, req.IR)
				if err != nil {
					return single(nil, err)
				}
				return single(s.Engine.Submit(q))
			})
		case "prepare":
			if len(stmts) >= maxPreparedStmts {
				ob.send(Response{Type: "error", Error: fmt.Sprintf("prepare: connection already holds the maximum of %d prepared statements", maxPreparedStmts)})
				continue
			}
			var st *engine.Stmt
			var err error
			switch {
			case req.SQL != "":
				st, err = s.Engine.PrepareSQL(req.SQL)
			case req.IR != "":
				var q *ir.Query
				q, err = ir.Parse(0, req.IR)
				if err == nil {
					st, err = s.Engine.Prepare(q)
				}
			default:
				err = fmt.Errorf("prepare: neither sql nor ir set")
			}
			if err != nil {
				ob.send(Response{Type: "error", Error: err.Error()})
				continue
			}
			nextStmt++
			stmts[nextStmt] = st
			ob.send(Response{Type: "prepared", Stmt: nextStmt, Params: st.NumParams()})
		case "execute":
			st, ok := stmts[req.Stmt]
			if !ok {
				ob.send(Response{Type: "error", Token: req.Token, Error: fmt.Sprintf("execute: unknown statement %d", req.Stmt)})
				continue
			}
			submit(replayKey{token: req.Token}, 1, func() (Response, []*engine.Handle) {
				return single(st.Submit(req.Bindings...))
			})
		case "submit_batch":
			submit(replayKey{}, len(req.Queries), func() (Response, []*engine.Handle) {
				return many(req.Queries, s.Engine.SubmitBatch)
			})
		case "submit_bulk":
			submit(replayKey{}, len(req.Queries), func() (Response, []*engine.Handle) {
				return many(req.Queries, func(qs []*ir.Query) ([]*engine.Handle, error) {
					return s.Engine.SubmitBulk(qs, engine.BulkOptions{DeferFlush: req.DeferFlush})
				})
			})
		case "subscribe":
			submit(replayKey{subscribe: true, token: req.Token}, len(req.Queries), func() (Response, []*engine.Handle) {
				return many(req.Queries, s.Engine.SubmitBatch)
			})
		case "load":
			if err := s.Engine.Load(req.SQL); err != nil {
				ob.send(Response{Type: "error", Error: err.Error()})
				continue
			}
			ob.send(Response{Type: "ack"})
		case "flush":
			s.Engine.Flush()
			ob.send(Response{Type: "ack"})
		case "checkpoint":
			if err := s.Engine.Checkpoint(); err != nil {
				ob.send(Response{Type: "error", Error: err.Error()})
				continue
			}
			ob.send(Response{Type: "ack"})
		case "stats":
			st := s.Engine.Stats()
			resp := Response{Type: "stats", Stats: &st}
			if s.Injector != nil {
				fs := s.Injector.Stats()
				resp.Faults = &fs
			}
			ob.send(resp)
		default:
			ob.send(Response{Type: "error", Error: fmt.Sprintf("unknown op %q", req.Op)})
		}
	}
	// A scan that stops on a read error — most notably a request line over
	// the 1 MB buffer limit — would otherwise drop the connection silently,
	// leaving the client's pending request/reply exchange hung. Tell the
	// client why before closing (best effort: the conn may already be gone).
	if err := sc.Err(); err != nil {
		ob.send(Response{Type: "error", Error: fmt.Sprintf("read: %v", err)})
	}
}

// parseQueries validates a batch-shaped payload: one BatchItem per input
// (errors filled in for refused queries), plus the parsed queries and their
// item slots.
func (s *Server) parseQueries(queries []BatchQuery) ([]BatchItem, []*ir.Query, []int) {
	items := make([]BatchItem, len(queries))
	var qs []*ir.Query
	var slots []int
	for i, bq := range queries {
		var q *ir.Query
		var err error
		switch {
		case bq.SQL != "":
			q, err = s.Engine.ParseSQL(bq.SQL)
		case bq.IR != "":
			q, err = ir.Parse(0, bq.IR)
		default:
			err = fmt.Errorf("batch query %d: neither sql nor ir set", i)
		}
		if err == nil {
			err = q.Validate()
		}
		if err != nil {
			items[i] = BatchItem{Error: err.Error()}
			continue
		}
		qs = append(qs, q)
		slots = append(slots, i)
	}
	return items, qs, slots
}
