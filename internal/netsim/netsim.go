// Package netsim implements transport.Host over a discrete-event
// simulation: an in-memory network of virtual hosts exchanging eDonkey
// messages with modeled latency, under the virtual clock of a des.Loop.
//
// It substitutes for the paper's PlanetLab deployment and the live
// Internet: month-long measurement campaigns execute in seconds, fully
// deterministically, while running the exact same actor code as the real
// TCP path (package livenet).
package netsim

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/des"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Config tunes the network model.
type Config struct {
	// BaseLatency is the one-way delay floor between any two hosts.
	BaseLatency time.Duration
	// JitterLatency bounds the additional random per-connection delay.
	JitterLatency time.Duration
	// Reencode forces every message through the wire codec on delivery
	// (marshal then unmarshal). Slower, but verifies that everything the
	// actors exchange is representable on the real wire. Tests use it.
	Reencode bool
	// LossRate drops each message with this probability (0 disables).
	// Connection control events (dial, close) are not lost.
	LossRate float64
}

// DefaultConfig returns the model used by the campaigns: ~40ms one-way
// with up to 60ms jitter, no loss, no re-encoding.
func DefaultConfig() Config {
	return Config{BaseLatency: 40 * time.Millisecond, JitterLatency: 60 * time.Millisecond}
}

// Network is a set of simulated hosts sharing one event loop.
type Network struct {
	loop  *des.Loop
	cfg   Config
	hosts map[netip.Addr]*Host
	rng   *rand.Rand
	next  uint32 // address allocator within 10.0.0.0/8
}

// New creates an empty network on the given loop.
func New(loop *des.Loop, cfg Config) *Network {
	return &Network{
		loop:  loop,
		cfg:   cfg,
		hosts: make(map[netip.Addr]*Host),
		rng:   loop.NewRand("netsim"),
		next:  1,
	}
}

// Loop returns the underlying event loop.
func (n *Network) Loop() *des.Loop { return n.loop }

// NewHost creates a host with a fresh 10.x.y.z address. The label seeds
// the host's private random stream (see Host.Rand).
func (n *Network) NewHost(label string) *Host {
	for {
		v := n.next
		n.next++
		addr := netip.AddrFrom4([4]byte{10, byte(v >> 16), byte(v >> 8), byte(v)})
		if _, taken := n.hosts[addr]; taken {
			continue
		}
		return n.addHost(label, addr)
	}
}

func (n *Network) addHost(label string, addr netip.Addr) *Host {
	h := &Host{
		net:      n,
		addr:     addr,
		label:    label,
		up:       true,
		nextPort: 50000,
	}
	n.hosts[addr] = h
	return h
}

// HostAt returns the host bound to addr, if any.
func (n *Network) HostAt(addr netip.Addr) (*Host, bool) {
	h, ok := n.hosts[addr]
	return h, ok
}

// RemoveHost forgets a (typically crashed) host, releasing its address
// and state. Long campaigns spawn hundreds of thousands of short-lived
// peers; removing them keeps memory bounded.
func (n *Network) RemoveHost(addr netip.Addr) {
	if h, ok := n.hosts[addr]; ok {
		h.Crash()
		delete(n.hosts, addr)
	}
}

// NumHosts returns the number of live hosts.
func (n *Network) NumHosts() int { return len(n.hosts) }

// connLatency samples the fixed one-way latency for a new connection.
func (n *Network) connLatency() time.Duration {
	d := n.cfg.BaseLatency
	if n.cfg.JitterLatency > 0 {
		d += time.Duration(n.rng.Int63n(int64(n.cfg.JitterLatency)))
	}
	if d <= 0 {
		d = time.Millisecond
	}
	return d
}

// Host is one simulated node.
type Host struct {
	net       *Network
	addr      netip.Addr
	label     string
	up        bool
	linkDown  bool                 // uplink severed (host alive, unreachable)
	rng       *rand.Rand           // nil until the first Rand call
	listeners map[uint16]*listener // nil until the first Listen
	conns     []*conn              // open connections; conn.idx is the position here
	nextPort  uint16
}

var _ transport.Host = (*Host)(nil)

// Addr implements transport.Host.
func (h *Host) Addr() netip.Addr { return h.addr }

// Now implements transport.Host.
func (h *Host) Now() time.Time { return h.net.loop.Now() }

// Rand implements transport.Host. The stream is seeded by the first
// call, from the loop's seed and the host's label and address alone, so
// it is the same stream whenever that call comes; the simulated peers,
// which never make it, are spared the 4.8 KiB source.
func (h *Host) Rand() *rand.Rand {
	if h.rng == nil {
		h.rng = h.net.loop.NewRand("host/" + h.label + "/" + h.addr.String())
	}
	return h.rng
}

// track and untrack keep h.conns: a slice, not a map, so that Crash and
// SetLinkDown close connections in an order the history alone decides.
func (h *Host) track(c *conn) {
	if h.conns == nil {
		h.conns = make([]*conn, 0, 4) // a peer keeps a few contacts open
	}
	c.idx = len(h.conns)
	h.conns = append(h.conns, c)
}

func (h *Host) untrack(c *conn) {
	n := len(h.conns) - 1
	last := h.conns[n]
	h.conns[c.idx], last.idx = last, c.idx
	h.conns[n] = nil
	h.conns = h.conns[:n]
}

// LinkDown reports whether the host's uplink is severed.
func (h *Host) LinkDown() bool { return h.linkDown }

// SetLinkDown severs (or restores) the host's uplink without touching
// the process: established connections die — both sides observe a
// failure — but listeners, timers and all host state survive, and on
// restore new dials go through again. This models a flapping network
// link, where Crash models a dying machine.
func (h *Host) SetLinkDown(down bool) {
	if h.linkDown == down {
		return
	}
	h.linkDown = down
	if !down {
		return
	}
	for _, c := range h.conns {
		c.closed = true
		// The far side sees the break after one latency; the local side
		// notices on its next tick (its TCP stack reports the reset).
		h.net.loop.AfterCall(c.latency, remoteClosedEvent, c.peer, transport.ErrHostDown)
		h.net.loop.AfterCall(0, localClosedEvent, c, transport.ErrHostDown)
	}
	h.conns = nil
}

// The functions below are the calls of the events netsim schedules per
// message, timer, post, dial and close (des.Loop.AfterCall and
// AfterCallGuarded): top-level functions over two pointer-shaped
// operands, where a closure would cost an allocation each. Events that
// run actor code on a host are guarded by the host's up flag, so a
// crashed host's timers and dial results are muted.

// runFunc runs fn (arg): the form of After and Post.
func runFunc(_, arg any) { arg.(func())() }

// deliverEvent hands message arg to connection recv, one latency after
// the far side's Send.
func deliverEvent(recv, arg any) {
	c := recv.(*conn)
	if c.closed || !c.host.up {
		return
	}
	m := arg.(wire.Message)
	if !c.handlerSet {
		c.buffered = append(c.buffered, m)
		return
	}
	c.deliver(m)
}

// remoteClosedEvent tells connection recv that the far side closed
// (nil arg) or failed with error arg.
func remoteClosedEvent(recv, arg any) {
	err, _ := arg.(error)
	recv.(*conn).remoteClosed(err)
}

// localClosedEvent reports error arg to the handler of connection recv,
// whose own host severed it.
func localClosedEvent(recv, arg any) {
	if c := recv.(*conn); c.handler != nil {
		c.handler.HandleClose(arg.(error))
	}
}

// synEvent is a dial reaching its target, one latency after Dial: recv
// is the dialing side's connection, not yet established, whose peer is
// already the accepting side's memory. The target accepts at once; the
// dialer learns the outcome one latency later.
func synEvent(recv, _ any) {
	a := recv.(*conn)
	h := a.host
	target, ok := h.net.hosts[a.remote.Addr()]
	if !ok || !target.up || target.linkDown {
		h.net.loop.AfterCallGuarded(a.latency, &h.up, dialFailedEvent, a, transport.ErrHostDown)
		return
	}
	l, ok := target.listeners[a.remote.Port()]
	if !ok || l.closed {
		h.net.loop.AfterCallGuarded(a.latency, &h.up, dialFailedEvent, a, transport.ErrConnRefused)
		return
	}
	// Establish the pair: the accept side fires now, the dialer side
	// one latency later (its SYN-ACK).
	b := a.peer
	*b = conn{host: target, peer: a, latency: a.latency, local: a.remote, remote: a.local, space: l.space}
	h.track(a)
	target.track(b)
	l.accept(b)
	h.net.loop.AfterCallGuarded(a.latency, &h.up, dialedEvent, a, nil)
}

// dialedEvent hands the established connection recv to its dialer.
func dialedEvent(recv, _ any) {
	a := recv.(*conn)
	d := a.dialer
	a.dialer = nil
	d.HandleDial(a, nil)
}

// dialFailedEvent reports error arg to the dialer of connection recv,
// which was never established.
func dialFailedEvent(recv, arg any) {
	a := recv.(*conn)
	d := a.dialer
	a.dialer = nil
	d.HandleDial(nil, arg.(error))
}

// After implements transport.Host.
func (h *Host) After(d time.Duration, fn func()) transport.Timer {
	return h.AfterCall(d, runFunc, nil, fn)
}

// AfterCall implements transport.Host.
func (h *Host) AfterCall(d time.Duration, fn func(recv, arg any), recv, arg any) transport.Timer {
	return transport.NewTimer(h.net.loop.AfterCallGuarded(d, &h.up, fn, recv, arg).Handle())
}

// Post implements transport.Host.
func (h *Host) Post(fn func()) {
	h.net.loop.AfterCallGuarded(0, &h.up, runFunc, nil, fn)
}

// PostCall implements transport.Host.
func (h *Host) PostCall(fn func(recv, arg any), recv, arg any) {
	h.net.loop.AfterCallGuarded(0, &h.up, fn, recv, arg)
}

type listener struct {
	host   *Host
	port   uint16
	space  wire.Space
	accept func(transport.Conn)
	closed bool
}

// Close implements transport.Listener. It unbinds the port only while
// the port is still this listener's: after a crash and restart the
// relaunched process may have bound it again.
func (l *listener) Close() {
	l.closed = true
	if l.host.listeners[l.port] == l {
		delete(l.host.listeners, l.port)
	}
}

func (l *listener) Addr() netip.AddrPort { return netip.AddrPortFrom(l.host.addr, l.port) }

// Listen implements transport.Host.
func (h *Host) Listen(port uint16, space wire.Space, accept func(transport.Conn)) (transport.Listener, error) {
	if !h.up {
		return nil, transport.ErrHostDown
	}
	if _, taken := h.listeners[port]; taken {
		return nil, fmt.Errorf("netsim: port %d already bound on %v", port, h.addr)
	}
	l := &listener{host: h, port: port, space: space, accept: accept}
	if h.listeners == nil {
		h.listeners = make(map[uint16]*listener, 1)
	}
	h.listeners[port] = l
	return l, nil
}

func (h *Host) ephemeralPort() uint16 {
	p := h.nextPort
	h.nextPort++
	if h.nextPort < 50000 {
		h.nextPort = 50000
	}
	return p
}

// Dial implements transport.Host. A dial allocates its two connections
// as one value: the dialing side's is made at once and carries the
// attempt through its events (synEvent, then dialedEvent or
// dialFailedEvent); it joins the host's open connections only once
// established, when the accepting side's is filled in.
func (h *Host) Dial(remote netip.AddrPort, space wire.Space, done transport.DialHandler) {
	if !h.up {
		return
	}
	lat := h.net.connLatency()
	pair := new([2]conn)
	a := &pair[0]
	*a = conn{host: h, peer: &pair[1], latency: lat, local: netip.AddrPortFrom(h.addr, h.ephemeralPort()), remote: remote, space: space, dialer: done}
	if h.linkDown {
		h.net.loop.AfterCallGuarded(lat, &h.up, dialFailedEvent, a, transport.ErrHostDown)
		return
	}
	h.net.loop.AfterCall(lat, synEvent, a, nil)
}

// Crash takes the host down abruptly: every connection dies (peers observe
// an error after one latency), listeners are closed and dropped, timers
// are muted.
func (h *Host) Crash() {
	if !h.up {
		return
	}
	h.up = false
	for _, c := range h.conns {
		c.closed = true
		h.net.loop.AfterCall(c.latency, remoteClosedEvent, c.peer, transport.ErrHostDown)
	}
	h.conns = nil
	for _, l := range h.listeners {
		l.closed = true
	}
	clear(h.listeners)
}

// Restart brings a crashed host back up with no listeners or connections
// (and its uplink restored).
func (h *Host) Restart() { h.up = true; h.linkDown = false }

type conn struct {
	host    *Host
	idx     int // position in host.conns while open
	peer    *conn
	latency time.Duration
	space   wire.Space
	dialer  transport.DialHandler // until the dial's outcome is handed over
	handler transport.ConnHandler
	// handlerSet ends the buffering of early messages.
	handlerSet bool
	buffered   []wire.Message
	closed     bool
	local      netip.AddrPort
	remote     netip.AddrPort
}

var _ transport.Conn = (*conn)(nil)

func (c *conn) LocalAddr() netip.AddrPort  { return c.local }
func (c *conn) RemoteAddr() netip.AddrPort { return c.remote }

// SetHandler implements transport.Conn.
func (c *conn) SetHandler(h transport.ConnHandler) {
	c.handler = h
	c.handlerSet = true
	for _, m := range c.buffered {
		c.deliver(m)
	}
	c.buffered = nil
}

func (c *conn) deliver(m wire.Message) {
	if c.handler != nil {
		c.handler.HandleMessage(m)
	}
}

// Send implements transport.Conn.
func (c *conn) Send(m wire.Message) {
	if c.closed || !c.host.up {
		return
	}
	net := c.host.net
	if net.cfg.LossRate > 0 && net.rng.Float64() < net.cfg.LossRate {
		return
	}
	if net.cfg.Reencode {
		frame := wire.AppendFrame(nil, m)
		decoded, err := wire.Unmarshal(c.peer.space, wire.Opcode(frame[5]), frame[6:])
		if err != nil {
			panic(fmt.Sprintf("netsim: message %T does not survive the wire: %v", m, err))
		}
		m = decoded
	}
	net.loop.AfterCall(c.latency, deliverEvent, c.peer, m)
}

// Close implements transport.Conn.
func (c *conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.host.untrack(c)
	c.host.net.loop.AfterCall(c.latency, remoteClosedEvent, c.peer, nil)
}

// remoteClosed handles the peer's FIN or failure.
func (c *conn) remoteClosed(err error) {
	if c.closed || !c.host.up {
		return
	}
	c.closed = true
	c.host.untrack(c)
	if c.handler != nil {
		c.handler.HandleClose(err)
	}
}
