// Package control implements the manager ↔ honeypot control protocol.
//
// The paper's manager launches honeypots, tells them which server to join
// and which files to advertise, polls their status, and periodically
// gathers their logs. This package carries those four operations — join a
// server, advertise, status, and take-records-since, a read of the
// honeypot's logstore shard after the checkpoint the manager last acked —
// as JSON envelopes inside eDonkey SERVER-MESSAGE frames on a dedicated
// port, so the exact same control plane runs over the simulated network
// and over real TCP (cmd/hpmanager driving cmd/honeypotd).
//
// # Failure semantics
//
// A collection campaign runs for weeks over links that flap; the control
// plane therefore distinguishes three failure shapes and gives each a
// typed identity:
//
//   - Remote refusals. An agent that cannot serve a request answers with
//     Envelope.Error (human-readable); the Link surfaces it as a
//     *RemoteError.
//   - Dead links. When the connection drops, every pending callback fails
//     with ErrLinkClosed at once, in request order, those waiting out a
//     retry backoff included; so does every later request on that Link.
//     ErrLinkClosed matches transport.ErrClosed under errors.Is, so
//     callers watching either sentinel agree.
//   - Silence. With a Policy set (SetPolicy), each request attempt runs
//     under a deadline; on expiry the Link re-issues the request (every
//     request is idempotent: a record read names its checkpoint, so a
//     re-read returns the same records) with jittered exponential
//     backoff, and after the attempt budget fails the
//     callback with an error wrapping ErrTimeout. Stale replies to an
//     expired attempt are dropped by sequence number, so a retry can
//     never double-apply. The zero Policy — no deadline, one attempt —
//     waits for each answer as long as the link lives, and keeps
//     fault-free runs byte-stable: jitter is drawn from the host's
//     random stream only on error paths.
//
// The manager layers its own degradation on top: a honeypot whose
// collection round exhausts this budget is skipped and audited, not
// retried forever (see internal/manager).
package control

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"time"

	"repro/internal/client"
	"repro/internal/ed2k"
	"repro/internal/honeypot"
	"repro/internal/logging"
	"repro/internal/logstore"
	"repro/internal/transport"
	"repro/internal/wire"
)

// RemoteError is a refusal that crossed the control plane: the remote
// agent answered, but with an error envelope.
type RemoteError struct {
	Msg string // human-readable message from the remote
}

func (e *RemoteError) Error() string { return "control: " + e.Msg }

// ErrTimeout is wrapped by errors a request reports when every attempt
// of its policy budget expired without an answer.
var ErrTimeout = errors.New("control: request timed out")

// linkClosedError gives ErrLinkClosed an identity of its own while still
// matching transport.ErrClosed, which callers historically tested for.
type linkClosedError struct{}

func (linkClosedError) Error() string        { return "control: link closed" }
func (linkClosedError) Is(target error) bool { return target == transport.ErrClosed }

// ErrLinkClosed is reported by every pending and subsequent request
// callback once the link's connection is gone.
var ErrLinkClosed error = linkClosedError{}

// DefaultPort is the conventional control port.
const DefaultPort = 4700

// Request types.
const (
	TypeStatus    = "status"
	TypeAdvertise = "advertise"
	TypeConnect   = "connect-server"
	// TypeTakeRecordsSince is log collection: the manager sends the
	// checkpoint it last acked and receives only records logged after
	// it, plus the next checkpoint. The honeypot's record source (its
	// logstore shard) serves it; every record crosses the control plane
	// at most once, even across honeypot restarts.
	TypeTakeRecordsSince = "take-records-since"
	TypeResponse         = "response"
)

// Envelope frames one control message.
type Envelope struct {
	Seq     uint64          `json:"seq"`
	Type    string          `json:"type"`
	Error   string          `json:"error,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// FileSpec serializes a shared file across the control link.
type FileSpec struct {
	Hash string `json:"hash"`
	Name string `json:"name"`
	Size int64  `json:"size"`
	Type string `json:"type"`
}

// ToShared converts to the client representation.
func (f FileSpec) ToShared() (client.SharedFile, error) {
	h, err := ed2k.ParseHash(f.Hash)
	if err != nil {
		return client.SharedFile{}, err
	}
	return client.SharedFile{Hash: h, Name: f.Name, Size: f.Size, Type: f.Type}, nil
}

// SpecOf converts from the client representation.
func SpecOf(f client.SharedFile) FileSpec {
	return FileSpec{Hash: f.Hash.String(), Name: f.Name, Size: f.Size, Type: f.Type}
}

// AdvertiseRequest carries the files to advertise.
type AdvertiseRequest struct {
	Files []FileSpec `json:"files"`
}

// ConnectRequest carries the directory server to join.
type ConnectRequest struct {
	Server string `json:"server"`
}

// SinceRequest asks for records after a checkpoint, at most Max (0 means
// no bound — avoid on large shards).
type SinceRequest struct {
	Since logstore.Checkpoint `json:"since"`
	Max   int                 `json:"max"`
}

// SinceResponse carries the records and the checkpoint to ack next.
type SinceResponse struct {
	Records []logging.Record    `json:"records"`
	Next    logstore.Checkpoint `json:"next"`
}

// RecordSource serves records from a durable position; logstore.Shard
// implements it.
type RecordSource interface {
	ReadSince(cp logstore.Checkpoint, max int) ([]logging.Record, logstore.Checkpoint, error)
}

func marshalEnvelope(e Envelope) wire.Message {
	b, err := json.Marshal(e)
	if err != nil {
		// Envelope contents are always marshalable; this is a programmer error.
		panic("control: marshal envelope: " + err.Error())
	}
	return &wire.ServerMessage{Text: string(b)}
}

func unmarshalEnvelope(m wire.Message) (Envelope, error) {
	sm, ok := m.(*wire.ServerMessage)
	if !ok {
		return Envelope{}, fmt.Errorf("control: unexpected frame %T", m)
	}
	var e Envelope
	if err := json.Unmarshal([]byte(sm.Text), &e); err != nil {
		return Envelope{}, fmt.Errorf("control: bad envelope: %w", err)
	}
	return e, nil
}

// ---------------------------------------------------------------------------
// Agent (honeypot side).

// Agent serves control requests for one honeypot.
type Agent struct {
	hp       *honeypot.Honeypot
	listener transport.Listener
	src      RecordSource
}

// NewAgent starts serving control requests on the given port of the
// honeypot's host; src serves take-records-since (the logstore shard
// the honeypot's Sink writes to).
func NewAgent(host transport.Host, hp *honeypot.Honeypot, src RecordSource, port uint16) (*Agent, error) {
	if src == nil {
		return nil, errors.New("control: an agent needs a record source")
	}
	a := &Agent{hp: hp, src: src}
	l, err := host.Listen(port, wire.ServerSpace, func(c transport.Conn) { c.SetHandler(&agentConn{a, c}) })
	if err != nil {
		return nil, err
	}
	a.listener = l
	return a, nil
}

// Close stops serving.
func (a *Agent) Close() {
	if a.listener != nil {
		a.listener.Close()
	}
}

// agentConn serves the requests that arrive on one control connection.
type agentConn struct {
	a    *Agent
	conn transport.Conn
}

// HandleMessage implements transport.ConnHandler: it answers a request.
func (c *agentConn) HandleMessage(m wire.Message) {
	env, err := unmarshalEnvelope(m)
	if err != nil {
		c.conn.Send(marshalEnvelope(Envelope{Type: TypeResponse, Error: err.Error()}))
		return
	}
	c.conn.Send(marshalEnvelope(c.a.handle(env)))
}

// HandleClose implements transport.ConnHandler.
func (*agentConn) HandleClose(error) {}

func (a *Agent) handle(req Envelope) Envelope {
	resp := Envelope{Seq: req.Seq, Type: TypeResponse}
	fail := func(err error) Envelope {
		resp.Error = err.Error()
		return resp
	}
	switch req.Type {
	case TypeStatus:
		b, err := json.Marshal(a.hp.Status())
		if err != nil {
			return fail(err)
		}
		resp.Payload = b
	case TypeAdvertise:
		var ar AdvertiseRequest
		if err := json.Unmarshal(req.Payload, &ar); err != nil {
			return fail(err)
		}
		files := make([]client.SharedFile, 0, len(ar.Files))
		for _, fs := range ar.Files {
			f, err := fs.ToShared()
			if err != nil {
				return fail(err)
			}
			files = append(files, f)
		}
		a.hp.Advertise(files...)
	case TypeConnect:
		var cr ConnectRequest
		if err := json.Unmarshal(req.Payload, &cr); err != nil {
			return fail(err)
		}
		addr, err := netip.ParseAddrPort(cr.Server)
		if err != nil {
			return fail(err)
		}
		a.hp.ConnectServer(addr)
	case TypeTakeRecordsSince:
		var sr SinceRequest
		if err := json.Unmarshal(req.Payload, &sr); err != nil {
			return fail(err)
		}
		recs, next, err := a.src.ReadSince(sr.Since, sr.Max)
		if err != nil {
			return fail(err)
		}
		b, err := json.Marshal(SinceResponse{Records: recs, Next: next})
		if err != nil {
			return fail(err)
		}
		resp.Payload = b
	default:
		resp.Error = "control: unknown request type " + req.Type
	}
	return resp
}

// ---------------------------------------------------------------------------
// Link (manager side).

// Policy bounds how long a Link waits for answers. The zero value — no
// deadline, a single attempt — waits for each answer until the link
// dies, and is what fault-free simulations run under.
type Policy struct {
	// Timeout is the per-attempt deadline. 0 waits forever.
	Timeout time.Duration
	// Attempts is the total attempt budget per request; values below 1
	// mean one attempt.
	Attempts int
	// Backoff is the delay before the second attempt, doubling per
	// retry with jitter (half to full value). 0 means 2s.
	Backoff time.Duration
	// BackoffMax caps the doubled backoff. 0 means 30s.
	BackoffMax time.Duration
}

// pendingReq is an in-flight request: its callback and, under a policy
// deadline, the timer that expires the attempt. A request whose attempt
// expired and that waits out its retry backoff stays under that
// attempt's seq, waiting, with the backoff as its timer: a late answer
// to the attempt is dropped, and a close fails the request at once.
type pendingReq struct {
	cb      func(Envelope, error)
	timer   transport.Timer
	waiting bool
}

// Link is the manager's connection to one honeypot agent.
type Link struct {
	host    transport.Host
	id      string
	addr    netip.AddrPort
	conn    transport.Conn
	seq     uint64
	pending map[uint64]*pendingReq
	policy  Policy
	closed  bool
}

// Dial connects to a honeypot's control port. done runs on the manager's
// executor.
func Dial(host transport.Host, id string, addr netip.AddrPort, done func(*Link, error)) {
	host.Dial(addr, wire.ServerSpace, linkDial{&Link{host: host, id: id, addr: addr}, done})
}

// linkDial is a Dial in flight: the Link it connects, and the callback.
type linkDial struct {
	l    *Link
	done func(*Link, error)
}

// HandleDial implements transport.DialHandler.
func (d linkDial) HandleDial(conn transport.Conn, err error) {
	if err != nil {
		d.done(nil, err)
		return
	}
	d.l.conn, d.l.pending = conn, make(map[uint64]*pendingReq)
	conn.SetHandler(d.l)
	d.done(d.l, nil)
}

// ID returns the honeypot identifier this link serves.
func (l *Link) ID() string { return l.id }

// Addr returns the control endpoint.
func (l *Link) Addr() netip.AddrPort { return l.addr }

// Closed reports whether the link died.
func (l *Link) Closed() bool { return l.closed }

// SetPolicy installs the link's deadline/retry policy. Call it on the
// manager's executor before issuing requests; in-flight attempts keep
// the policy they started under.
func (l *Link) SetPolicy(p Policy) { l.policy = p }

// Redial closes l and dials its endpoint again under the same id and
// policy — how a manager gets a restarted honeypot back. done runs on
// the manager's executor.
func (l *Link) Redial(done func(*Link, error)) {
	l.Close()
	l.host.Dial(l.addr, wire.ServerSpace, linkDial{&Link{host: l.host, id: l.id, addr: l.addr, policy: l.policy}, done})
}

// Close tears the link down; pending requests fail with ErrLinkClosed.
func (l *Link) Close() {
	if !l.closed {
		l.conn.Close()
		l.HandleClose(nil)
	}
}

// HandleClose implements transport.ConnHandler.
func (l *Link) HandleClose(error) {
	if l.closed {
		return
	}
	l.closed = true
	// Fail in seq order: each callback may schedule events.
	for _, seq := range slices.Sorted(maps.Keys(l.pending)) {
		p := l.pending[seq]
		delete(l.pending, seq)
		p.timer.Stop()
		p.cb(Envelope{}, ErrLinkClosed)
	}
}

// HandleMessage implements transport.ConnHandler.
func (l *Link) HandleMessage(m wire.Message) {
	env, err := unmarshalEnvelope(m)
	if err != nil {
		return // ignore garbage responses
	}
	p, ok := l.pending[env.Seq]
	if !ok || p.waiting {
		return // expired attempt's late answer; the retry owns the request now
	}
	delete(l.pending, env.Seq)
	p.timer.Stop()
	p.cb(env, nil)
}

func (l *Link) request(typ string, payload any, cb func(Envelope, error)) {
	var body json.RawMessage
	if payload != nil {
		b, err := json.Marshal(payload)
		if err != nil {
			cb(Envelope{}, err)
			return
		}
		body = b
	}
	l.send(typ, body, 1, cb)
}

// send issues one attempt of a request. Under a policy deadline the
// attempt is armed with an expiry timer; see expire for what happens
// when it fires.
func (l *Link) send(typ string, body json.RawMessage, attempt int, cb func(Envelope, error)) {
	if l.closed {
		cb(Envelope{}, ErrLinkClosed)
		return
	}
	l.seq++
	env := Envelope{Seq: l.seq, Type: typ, Payload: body}
	p := &pendingReq{cb: cb}
	if l.policy.Timeout > 0 {
		seq := env.Seq
		p.timer = l.host.After(l.policy.Timeout, func() {
			l.expire(seq, typ, body, attempt, cb)
		})
	}
	l.pending[env.Seq] = p
	l.conn.Send(marshalEnvelope(env))
}

// expire handles a per-attempt deadline firing: the attempt is
// abandoned (its seq kept waiting, so a late answer is dropped) and, if
// the budget allows, re-issued after a jittered exponential backoff.
func (l *Link) expire(seq uint64, typ string, body json.RawMessage, attempt int, cb func(Envelope, error)) {
	p, ok := l.pending[seq]
	if !ok || p.waiting {
		return // answered or failed before the timer ran
	}
	if attempt < l.policy.Attempts && !l.closed {
		p.waiting = true
		p.timer = l.host.After(l.retryDelay(attempt), func() {
			if l.pending[seq] == p {
				delete(l.pending, seq)
				l.send(typ, body, attempt+1, cb)
			}
		})
		return
	}
	delete(l.pending, seq)
	cb(Envelope{}, fmt.Errorf("control: %s to %s: no answer after %d attempt(s): %w",
		typ, l.id, attempt, ErrTimeout))
}

// retryDelay doubles the policy backoff per retry (capped) and jitters
// it into [d/2, d]. Random draws happen only here, on an error path, so
// fault-free runs consume the host's random stream identically with or
// without a policy.
func (l *Link) retryDelay(attempt int) time.Duration {
	base := l.policy.Backoff
	if base <= 0 {
		base = 2 * time.Second
	}
	max := l.policy.BackoffMax
	if max <= 0 {
		max = 30 * time.Second
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := int64(d) / 2
	return time.Duration(half + l.host.Rand().Int63n(half+1))
}

// Status polls the honeypot's status.
func (l *Link) Status(cb func(honeypot.Status, error)) {
	l.request(TypeStatus, nil, func(env Envelope, err error) {
		if err != nil {
			cb(honeypot.Status{}, err)
			return
		}
		if env.Error != "" {
			cb(honeypot.Status{}, &RemoteError{Msg: env.Error})
			return
		}
		var st honeypot.Status
		if err := json.Unmarshal(env.Payload, &st); err != nil {
			cb(honeypot.Status{}, err)
			return
		}
		cb(st, nil)
	})
}

// Advertise tells the honeypot which files to claim.
func (l *Link) Advertise(files []client.SharedFile, cb func(error)) {
	req := AdvertiseRequest{Files: make([]FileSpec, 0, len(files))}
	for _, f := range files {
		req.Files = append(req.Files, SpecOf(f))
	}
	l.request(TypeAdvertise, req, func(env Envelope, err error) {
		cb(respErr(env, err))
	})
}

// ConnectServer redirects the honeypot to a directory server.
func (l *Link) ConnectServer(server netip.AddrPort, cb func(error)) {
	l.request(TypeConnect, ConnectRequest{Server: server.String()}, func(env Envelope, err error) {
		cb(respErr(env, err))
	})
}

// TakeRecordsSince asks for records after the given checkpoint (at most
// max; 0 = unbounded) and the checkpoint to use next. Implements the
// manager's IncrementalHandle.
func (l *Link) TakeRecordsSince(since logstore.Checkpoint, max int, cb func([]logging.Record, logstore.Checkpoint, error)) {
	l.request(TypeTakeRecordsSince, SinceRequest{Since: since, Max: max}, func(env Envelope, err error) {
		if err != nil {
			cb(nil, since, err)
			return
		}
		if env.Error != "" {
			cb(nil, since, &RemoteError{Msg: env.Error})
			return
		}
		var sr SinceResponse
		if err := json.Unmarshal(env.Payload, &sr); err != nil {
			cb(nil, since, err)
			return
		}
		cb(sr.Records, sr.Next, nil)
	})
}

func respErr(env Envelope, err error) error {
	if err != nil {
		return err
	}
	if env.Error != "" {
		return &RemoteError{Msg: env.Error}
	}
	return nil
}
