// Package transport defines the host/connection abstraction the protocol
// actors (server, client, honeypot) are written against. Two
// implementations exist: package netsim executes hosts inside a
// discrete-event simulation with virtual time, and package livenet runs
// the identical actor code over real TCP sockets.
//
// Threading contract: all callbacks delivered to a given Host — accept
// callbacks, dial handlers, connection handlers, timers, functions passed
// to Post — are serialized. Actor code therefore needs no locks of its
// own, exactly like a handler running inside an event loop.
//
// Callbacks on hot paths take a closure-free form, so that a simulated
// campaign's millions of messages, sessions and timers cost no closure
// each: a connection reports to a ConnHandler and a dial to a
// DialHandler, both interfaces an owner struct implements once for every
// connection it holds, and AfterCall/PostCall schedule a static
// func(recv, arg any) over two pointer-shaped operands.
package transport

import (
	"errors"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/wire"
)

// ErrConnRefused is reported when no listener accepts a dialed port.
var ErrConnRefused = errors.New("transport: connection refused")

// ErrHostDown is reported when the target host is not running.
var ErrHostDown = errors.New("transport: host down")

// ErrClosed is reported on use of a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// ConnHandler receives connection events.
type ConnHandler interface {
	// HandleMessage is called for every decoded message, in order.
	HandleMessage(m wire.Message)
	// HandleClose is called exactly once when the connection dies, with
	// nil on graceful close by either side and an error otherwise.
	HandleClose(err error)
}

// DialHandler receives the outcome of Host.Dial: the connection, or an
// error.
type DialHandler interface {
	HandleDial(c Conn, err error)
}

// Conn is one bidirectional, ordered eDonkey message stream.
type Conn interface {
	// SetHandler installs the receiver of the connection's events; nil
	// discards them. Messages arriving before SetHandler are buffered.
	SetHandler(h ConnHandler)
	// Send enqueues a message. Sends on a closed connection are dropped
	// silently (HandleClose already reported the death).
	Send(m wire.Message)
	// Close tears the connection down gracefully.
	Close()
	// LocalAddr and RemoteAddr identify the two endpoints.
	LocalAddr() netip.AddrPort
	RemoteAddr() netip.AddrPort
}

// Listener is an open listening port.
type Listener interface {
	// Close stops accepting. Established connections are unaffected.
	Close()
	// Addr returns the bound address.
	Addr() netip.AddrPort
}

// Stopper is what a Host schedules a timer's callback on: the
// simulation's event or the live host's time.Timer wrapper.
type Stopper interface {
	// StopTimer cancels the callback scheduled under generation gen and
	// reports whether this call prevented it from running.
	StopTimer(gen uint32) bool
}

// Timer is a cancelable scheduled callback, returned by Host.After and
// Host.AfterCall. It
// is a small value: a pointer-shaped Stopper and the generation it was
// scheduled under, so handing one out allocates nothing and a handle
// kept past its callback cannot reach whatever reuses the Stopper. The
// zero Timer is inert.
type Timer struct {
	s   Stopper
	gen uint32
}

// NewTimer is for Host implementations: s stops the callback, gen is
// what s.StopTimer must be given. A nil s makes the zero Timer.
func NewTimer(s Stopper, gen uint32) Timer { return Timer{s: s, gen: gen} }

// Stop cancels the timer. It reports whether this call prevented the
// callback from running: false for the zero Timer, once the callback has
// run (or been queued to run), and on every Stop after the first.
func (t Timer) Stop() bool { return t.s != nil && t.s.StopTimer(t.gen) }

// Host is one network node with its own address, clock and executor.
type Host interface {
	// Addr returns the host's IPv4 address.
	Addr() netip.Addr
	// Now returns the host's current time (virtual under simulation).
	Now() time.Time
	// After schedules fn on the host's executor after d. A crashed
	// host's timers never fire.
	After(d time.Duration, fn func()) Timer
	// AfterCall is After in the closure-free form: it schedules
	// fn(recv, arg) after d. With a top-level fn and pointer-shaped
	// operands it allocates nothing under simulation.
	AfterCall(d time.Duration, fn func(recv, arg any), recv, arg any) Timer
	// Post schedules fn on the host's executor as soon as possible. It is
	// safe to call from any goroutine; this is the bridge for external
	// inputs in live mode.
	Post(fn func())
	// PostCall is Post in the closure-free form.
	PostCall(fn func(recv, arg any), recv, arg any)
	// Rand returns the host's random stream. Must only be used from the
	// host's executor.
	Rand() *rand.Rand
	// Listen opens a listening port for the given protocol space; accept
	// runs on the host executor for every inbound connection.
	Listen(port uint16, space wire.Space, accept func(Conn)) (Listener, error)
	// Dial opens a connection to remote speaking the given space. done is
	// invoked on the host executor with the connection or an error.
	Dial(remote netip.AddrPort, space wire.Space, done DialHandler)
}
