package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vuvuzela/internal/transport"
)

// traceNet is a transport.Network over transport.Mem that timestamps and
// counts every Read and Write on both ends of every connection while
// recording is on. transport.Mem connections are synchronous net.Pipe
// pairs, so a Write returns only once the peer has read the bytes: the
// end of a sender's last Write is the moment the receiver holds the
// whole message.
type traceNet struct {
	mem  *transport.Mem
	base time.Time
	on   atomic.Bool

	mu     sync.Mutex
	events []event
}

// event is one Read or Write on one end of a connection. addr is the
// listen address the connection was dialed to, which names its leg.
type event struct {
	addr       string
	dialer     bool
	write      bool
	start, end time.Duration // since traceNet.base
	n          int
}

func newTraceNet() *traceNet {
	return &traceNet{mem: transport.NewMem(), base: time.Now()}
}

// Listen implements transport.Network.
func (t *traceNet) Listen(addr string) (net.Listener, error) {
	l, err := t.mem.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &traceListener{Listener: l, net: t, addr: addr}, nil
}

// Dial implements transport.Network.
func (t *traceNet) Dial(addr string) (net.Conn, error) {
	c, err := t.mem.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &traceConn{Conn: c, net: t, addr: addr, dialer: true}, nil
}

// record turns recording on or off.
func (t *traceNet) record(on bool) { t.on.Store(on) }

// take returns the events recorded since the last take and clears them.
func (t *traceNet) take() []event {
	t.mu.Lock()
	defer t.mu.Unlock()
	evs := t.events
	t.events = nil
	return evs
}

// since converts a wall-clock instant to the events' time base.
func (t *traceNet) since(at time.Time) time.Duration { return at.Sub(t.base) }

type traceListener struct {
	net.Listener
	net  *traceNet
	addr string
}

func (l *traceListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &traceConn{Conn: c, net: l.net, addr: l.addr}, nil
}

type traceConn struct {
	net.Conn
	net    *traceNet
	addr   string
	dialer bool
}

func (c *traceConn) Read(p []byte) (int, error) {
	if !c.net.on.Load() {
		return c.Conn.Read(p)
	}
	start := time.Since(c.net.base)
	n, err := c.Conn.Read(p)
	c.add(false, start, n)
	return n, err
}

func (c *traceConn) Write(p []byte) (int, error) {
	if !c.net.on.Load() {
		return c.Conn.Write(p)
	}
	start := time.Since(c.net.base)
	n, err := c.Conn.Write(p)
	c.add(true, start, n)
	return n, err
}

func (c *traceConn) add(write bool, start time.Duration, n int) {
	end := time.Since(c.net.base)
	if n == 0 {
		return
	}
	c.net.mu.Lock()
	c.net.events = append(c.net.events, event{addr: c.addr, dialer: c.dialer, write: write, start: start, end: end, n: n})
	c.net.mu.Unlock()
}
