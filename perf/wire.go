package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// wireCounters counts what crosses a set of connections: Write calls, bytes
// each way and time spent inside Write. Counting is switched on only for
// the phase being attributed, so the wrappers cost one atomic load
// elsewhere.
type wireCounters struct {
	on       atomic.Bool
	writes   atomic.Int64
	writeNS  atomic.Int64
	bytesOut atomic.Int64
	bytesIn  atomic.Int64
}

// wireSnap is a point-in-time copy of wireCounters.
type wireSnap struct {
	Writes, WriteNS, BytesOut, BytesIn int64
}

func (w *wireCounters) snap() wireSnap {
	return wireSnap{w.writes.Load(), w.writeNS.Load(), w.bytesOut.Load(), w.bytesIn.Load()}
}

func (a wireSnap) sub(b wireSnap) wireSnap {
	return wireSnap{a.Writes - b.Writes, a.WriteNS - b.WriteNS, a.BytesOut - b.BytesOut, a.BytesIn - b.BytesIn}
}

// countingConn wraps a net.Conn, feeding its reads and writes into c.
type countingConn struct {
	net.Conn
	c *wireCounters
}

func (cc *countingConn) Write(b []byte) (int, error) {
	if !cc.c.on.Load() {
		return cc.Conn.Write(b)
	}
	t0 := time.Now()
	n, err := cc.Conn.Write(b)
	cc.c.writeNS.Add(int64(time.Since(t0)))
	cc.c.writes.Add(1)
	cc.c.bytesOut.Add(int64(n))
	return n, err
}

func (cc *countingConn) Read(b []byte) (int, error) {
	n, err := cc.Conn.Read(b)
	if cc.c.on.Load() {
		cc.c.bytesIn.Add(int64(n))
	}
	return n, err
}

// countingListener wraps every accepted connection in a countingConn.
type countingListener struct {
	net.Listener
	c *wireCounters
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, c: l.c}, nil
}

// countingDialer returns a DialOptions.Dialer that dials TCP and wraps the
// connection in a countingConn, counted in liveConns until it is closed.
func countingDialer(c *wireCounters) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		liveConns.add(1)
		return &clientConn{countingConn: countingConn{Conn: conn, c: c}}, nil
	}
}

// clientConn is a dialed countingConn that leaves liveConns on its first
// Close.
type clientConn struct {
	countingConn
	once sync.Once
}

func (cc *clientConn) Close() error {
	cc.once.Do(func() { liveConns.add(-1) })
	return cc.countingConn.Close()
}
