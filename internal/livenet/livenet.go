// Package livenet implements transport.Host over real TCP sockets. The
// protocol actors (server, client, honeypot) run unchanged on top of it:
// what the simulator delivers as events, livenet delivers from socket
// read loops, serialized through a per-host executor goroutine so the
// single-threaded actor contract of package transport holds.
package livenet

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"time"

	"repro/internal/randsrc"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Host is a network node backed by the operating system's TCP stack.
type Host struct {
	addr netip.Addr
	rng  *rand.Rand

	mu        sync.Mutex
	execQueue []func()
	execCond  *sync.Cond
	closed    bool

	wg        sync.WaitGroup
	listeners map[*listener]struct{}
	conns     map[*conn]struct{}
}

var _ transport.Host = (*Host)(nil)

// NewHost creates a host bound to addr (usually a loopback address) and
// starts its executor. seed initializes the host's random stream.
func NewHost(addr netip.Addr, seed int64) *Host {
	h := &Host{
		addr:      addr,
		rng:       rand.New(randsrc.New(seed)),
		listeners: make(map[*listener]struct{}),
		conns:     make(map[*conn]struct{}),
	}
	h.execCond = sync.NewCond(&h.mu)
	h.wg.Add(1)
	go h.execLoop()
	return h
}

func (h *Host) execLoop() {
	defer h.wg.Done()
	for {
		h.mu.Lock()
		for len(h.execQueue) == 0 && !h.closed {
			h.execCond.Wait()
		}
		if h.closed && len(h.execQueue) == 0 {
			h.mu.Unlock()
			return
		}
		fn := h.execQueue[0]
		h.execQueue = h.execQueue[1:]
		h.mu.Unlock()
		fn()
	}
}

// Post implements transport.Host.
func (h *Host) Post(fn func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.execQueue = append(h.execQueue, fn)
	h.execCond.Signal()
}

// PostCall implements transport.Host. livenet is not on any simulated
// path, so it spends the closure.
func (h *Host) PostCall(fn func(recv, arg any), recv, arg any) {
	h.Post(func() { fn(recv, arg) })
}

// Close shuts the host down: listeners and connections are closed, the
// executor drains and exits. Close blocks until the executor has stopped.
func (h *Host) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	ls := make([]*listener, 0, len(h.listeners))
	for l := range h.listeners {
		ls = append(ls, l)
	}
	cs := make([]*conn, 0, len(h.conns))
	for c := range h.conns {
		cs = append(cs, c)
	}
	h.execCond.Broadcast()
	h.mu.Unlock()
	for _, l := range ls {
		l.ln.Close()
	}
	for _, c := range cs {
		c.closeTransport()
	}
	h.wg.Wait()
}

// Addr implements transport.Host.
func (h *Host) Addr() netip.Addr { return h.addr }

// Now implements transport.Host.
func (h *Host) Now() time.Time { return time.Now() }

// Rand implements transport.Host.
func (h *Host) Rand() *rand.Rand { return h.rng }

type liveTimer struct {
	t       *time.Timer
	stopped bool
	mu      sync.Mutex
}

// StopTimer implements transport.Stopper. A liveTimer is never reused,
// so it has one generation.
func (lt *liveTimer) StopTimer(uint32) bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if lt.stopped {
		return false
	}
	lt.stopped = true
	lt.t.Stop() // a callback already waiting on mu sees stopped and returns
	return true
}

// After implements transport.Host.
func (h *Host) After(d time.Duration, fn func()) transport.Timer {
	lt := &liveTimer{}
	lt.t = time.AfterFunc(d, func() {
		lt.mu.Lock()
		if lt.stopped {
			lt.mu.Unlock()
			return
		}
		lt.stopped = true
		lt.mu.Unlock()
		h.Post(fn)
	})
	return transport.NewTimer(lt, 0)
}

// AfterCall implements transport.Host.
func (h *Host) AfterCall(d time.Duration, fn func(recv, arg any), recv, arg any) transport.Timer {
	return h.After(d, func() { fn(recv, arg) })
}

type listener struct {
	host  *Host
	ln    net.Listener
	addr  netip.AddrPort
	space wire.Space
}

func (l *listener) Close() {
	l.ln.Close()
	l.host.mu.Lock()
	delete(l.host.listeners, l)
	l.host.mu.Unlock()
}

func (l *listener) Addr() netip.AddrPort { return l.addr }

// Listen implements transport.Host. Port 0 asks the kernel for a free
// port; Listener.Addr reveals the choice.
func (h *Host) Listen(port uint16, space wire.Space, accept func(transport.Conn)) (transport.Listener, error) {
	ln, err := net.Listen("tcp", netip.AddrPortFrom(h.addr, port).String())
	if err != nil {
		return nil, fmt.Errorf("livenet: listen: %w", err)
	}
	tcpAddr := ln.Addr().(*net.TCPAddr)
	l := &listener{host: h, ln: ln, space: space}
	l.addr = netip.AddrPortFrom(h.addr, uint16(tcpAddr.Port))
	h.mu.Lock()
	h.listeners[l] = struct{}{}
	h.mu.Unlock()

	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			c := h.newConn(nc, space)
			h.Post(func() { accept(c) })
		}
	}()
	return l, nil
}

// Dial implements transport.Host.
func (h *Host) Dial(remote netip.AddrPort, space wire.Space, done transport.DialHandler) {
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		d := net.Dialer{Timeout: 10 * time.Second, LocalAddr: &net.TCPAddr{IP: h.addr.AsSlice()}}
		nc, err := d.Dial("tcp", remote.String())
		if err != nil {
			h.Post(func() { done.HandleDial(nil, fmt.Errorf("%w: %v", transport.ErrConnRefused, err)) })
			return
		}
		c := h.newConn(nc, space)
		h.Post(func() { done.HandleDial(c, nil) })
	}()
}

type conn struct {
	host  *Host
	nc    net.Conn
	space wire.Space

	// Executor-owned state (only touched via Post).
	handler    transport.ConnHandler
	handlerSet bool
	buffered   []wire.Message
	notified   bool

	// Outbound queue.
	outMu     sync.Mutex
	outCond   *sync.Cond
	outQueue  [][]byte
	outClosed bool

	closeOnce sync.Once
	local     netip.AddrPort
	remote    netip.AddrPort
}

var _ transport.Conn = (*conn)(nil)

func (h *Host) newConn(nc net.Conn, space wire.Space) *conn {
	c := &conn{host: h, nc: nc, space: space}
	c.outCond = sync.NewCond(&c.outMu)
	if a, ok := nc.LocalAddr().(*net.TCPAddr); ok {
		c.local = a.AddrPort()
	}
	if a, ok := nc.RemoteAddr().(*net.TCPAddr); ok {
		c.remote = a.AddrPort()
	}
	h.mu.Lock()
	h.conns[c] = struct{}{}
	h.mu.Unlock()

	h.wg.Add(2)
	go c.readLoop()
	go c.writeLoop()
	return c
}

func (c *conn) readLoop() {
	defer c.host.wg.Done()
	r := wire.NewReader(c.nc, c.space)
	for {
		m, err := r.Read()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrUnexpectedEOF) {
				err = nil // graceful or locally-initiated close
			}
			c.closeTransport()
			finalErr := err
			c.host.Post(func() { c.notifyClose(finalErr) })
			return
		}
		msg := m
		c.host.Post(func() { c.dispatch(msg) })
	}
}

func (c *conn) writeLoop() {
	defer c.host.wg.Done()
	for {
		c.outMu.Lock()
		for len(c.outQueue) == 0 && !c.outClosed {
			c.outCond.Wait()
		}
		if len(c.outQueue) == 0 && c.outClosed {
			// Graceful close with the queue drained: now the socket may go.
			c.outMu.Unlock()
			c.hardClose()
			return
		}
		batch := c.outQueue
		c.outQueue = nil
		c.outMu.Unlock()
		for _, frame := range batch {
			if _, err := c.nc.Write(frame); err != nil {
				c.closeTransport()
				return
			}
		}
	}
}

// dispatch runs on the executor.
func (c *conn) dispatch(m wire.Message) {
	if !c.handlerSet {
		c.buffered = append(c.buffered, m)
		return
	}
	if c.handler != nil {
		c.handler.HandleMessage(m)
	}
}

// notifyClose runs on the executor.
func (c *conn) notifyClose(err error) {
	if c.notified {
		return
	}
	c.notified = true
	c.host.mu.Lock()
	delete(c.host.conns, c)
	c.host.mu.Unlock()
	if c.handler != nil {
		c.handler.HandleClose(err)
	}
}

// SetHandler implements transport.Conn. Must be called on the executor
// (i.e. from an accept/dial/message callback), like all actor code.
func (c *conn) SetHandler(h transport.ConnHandler) {
	c.handler = h
	c.handlerSet = true
	for _, m := range c.buffered {
		if h != nil {
			h.HandleMessage(m)
		}
	}
	c.buffered = nil
}

// Send implements transport.Conn.
func (c *conn) Send(m wire.Message) {
	frame := wire.AppendFrame(nil, m)
	c.outMu.Lock()
	defer c.outMu.Unlock()
	if c.outClosed {
		return
	}
	c.outQueue = append(c.outQueue, frame)
	c.outCond.Signal()
}

// Close implements transport.Conn: a graceful close that lets already
// queued messages flush before the socket goes down — matching netsim,
// where sends issued before Close are always delivered.
func (c *conn) Close() {
	c.outMu.Lock()
	wasClosed := c.outClosed
	c.outClosed = true
	drained := len(c.outQueue) == 0
	c.outCond.Broadcast()
	c.outMu.Unlock()
	if wasClosed {
		return
	}
	if drained {
		c.hardClose()
	}
	// Otherwise the writer goroutine closes the socket after flushing.
}

// closeTransport is the abortive teardown (read errors, host shutdown):
// pending writes are abandoned. Safe from any goroutine.
func (c *conn) closeTransport() {
	c.outMu.Lock()
	c.outClosed = true
	c.outCond.Broadcast()
	c.outMu.Unlock()
	c.hardClose()
}

// hardClose closes the socket exactly once.
func (c *conn) hardClose() {
	c.closeOnce.Do(func() {
		// Give an in-flight write a moment, then cut.
		c.nc.SetWriteDeadline(time.Now().Add(time.Second))
		c.nc.Close()
	})
}

// LocalAddr implements transport.Conn.
func (c *conn) LocalAddr() netip.AddrPort { return c.local }

// RemoteAddr implements transport.Conn.
func (c *conn) RemoteAddr() netip.AddrPort { return c.remote }
