// Package client implements the eDonkey client engine: the server session
// (login, OFFER-FILES announcements and keep-alives, GET-SOURCES and
// SEARCH queries) and peer sessions (the Fig. 1 message exchange of the
// paper: HELLO → HELLO-ANSWER → START-UPLOAD → ACCEPT-UPLOAD →
// REQUEST-PART → SENDING-PART, plus the browse extension).
//
// The honeypot (package honeypot) and the simulated peer population
// (package peersim) are both thin layers over this engine, mirroring how
// the paper built its honeypot by modifying the aMule client core.
//
// Owners observe sessions through handler interfaces (ServerHandler,
// PeerHandler, PeerDialer), which one owner struct per session or
// contact implements, so a simulated campaign pays no closure per
// session or message. Embed NopServerHandler or NopPeerHandler to
// implement only some of a session's events.
//
// A session is memory its owner may provide: DialPeerSession runs an
// outbound session in a PeerSession the caller embeds in its
// per-contact struct, and a PeerAcceptor returns the one for each
// inbound connection, so a contact allocates only its owners.
//
// Messages are read-only once sent (see package wire), so a message
// whose content depends only on the sender's state is built once and
// sent to every receiver: a client keeps one HELLO and one
// HELLO-ANSWER (rebuilt when its server address or client ID changes),
// one FILE-STATUS per shared file, one ASK-SHARED-FILES-ANSWER per
// length of its shared list, and the last SET-REQ-FILE-ID and
// START-UPLOAD it sent, reused while the next names the same file. A
// shared file's wire entry is encoded once, the first time the list is
// offered or browsed, and every later answer carries a snapshot of the
// append-only entry list.
package client

import (
	"bytes"
	"net/netip"
	"slices"
	"time"

	"repro/internal/ed2k"
	"repro/internal/transport"
	"repro/internal/wire"
)

// SharedFile is a file the client advertises or serves.
type SharedFile struct {
	Hash ed2k.Hash
	Name string
	Size int64
	Type string
}

// Config describes a client.
type Config struct {
	// Label names the client in diagnostics.
	Label string
	// UserHash is the stable cross-session identity.
	UserHash ed2k.Hash
	// Name is the advertised client name (e.g. "aMule 2.2.2").
	Name string
	// Version is the protocol version tag.
	Version uint32
	// Port is the peer-connection listening port; 0 means the client does
	// not listen (it will be assigned a low ID by probing servers).
	Port uint16
	// Browseable controls whether ASK-SHARED-FILES is answered with the
	// real list (the paper notes many peers disable this).
	Browseable bool
	// NoOffer suppresses OFFER-FILES announcements of the shared list to
	// the server: the list is then only visible through browsing. The
	// simulated population uses it so that honeypots remain the only
	// indexed providers of the files they advertise.
	NoOffer bool
	// KeepAlive is the OFFER-FILES refresh interval (empty offer).
	KeepAlive time.Duration
}

// ServerHandler observes the server session.
type ServerHandler interface {
	// HandleConnected fires after ID-CHANGE with the assigned ID.
	HandleConnected(id ed2k.ClientID)
	// HandleSources fires for each FOUND-SOURCES reply.
	HandleSources(file ed2k.Hash, sources []wire.Endpoint)
	// HandleSearchResult fires for each SEARCH-RESULT reply.
	HandleSearchResult(files []wire.FileEntry)
	// HandleStatus fires for SERVER-STATUS updates.
	HandleStatus(users, files uint32)
	// HandleDisconnected fires when the server link dies (nil =
	// graceful) or cannot be dialed.
	HandleDisconnected(err error)
}

// NopServerHandler ignores every event; embed it to implement only some.
type NopServerHandler struct{}

func (NopServerHandler) HandleConnected(ed2k.ClientID)            {}
func (NopServerHandler) HandleSources(ed2k.Hash, []wire.Endpoint) {}
func (NopServerHandler) HandleSearchResult([]wire.FileEntry)      {}
func (NopServerHandler) HandleStatus(uint32, uint32)              {}
func (NopServerHandler) HandleDisconnected(error)                 {}

// Client is the engine instance bound to one host.
type Client struct {
	host transport.Host
	cfg  Config

	serverConn    transport.Conn
	serverAddr    netip.AddrPort
	serverHandler ServerHandler
	clientID      ed2k.ClientID
	connected     bool
	// dialing: a server dial is in flight; redial: drop its outcome, redial.
	dialing, redial bool
	keepAlive       transport.Timer
	// helloTags are the name and version tags every HELLO and
	// HELLO-ANSWER carries, built once.
	helloTags wire.Tags
	// hello and helloAnswer are the handshake messages this client
	// sends, built on first need and dropped when the server address
	// or the client ID they carry changes.
	hello       *wire.Hello
	helloAnswer *wire.HelloAnswer
	// The last SET-REQ-FILE-ID and START-UPLOAD sent: a peer asks its
	// sources for the same file again and again.
	setReqFileID *wire.SetReqFileID
	startUpload  *wire.StartUploadReq

	// shared and sharedByKey stay nil until the first Share: most
	// simulated peers share nothing.
	shared      []SharedFile
	sharedByKey map[ed2k.Hash]int
	// entries[i] is shared[i]'s wire entry, encoded on first need
	// (entryList); the slice is only ever appended to.
	entries []wire.FileEntry
	// fileStatus[i] is shared[i]'s FILE-STATUS, built on first need.
	fileStatus []*wire.FileStatus
	// listAnswer is the ASK-SHARED-FILES-ANSWER of a browseable
	// client, rebuilt when the shared list has grown since.
	listAnswer *wire.AskSharedFilesAnswer

	listener transport.Listener
	// Acceptor owns the inbound peer sessions; nil runs each in a new
	// PeerSession whose events nobody observes.
	Acceptor PeerAcceptor
}

// New creates a client on host. Call Listen and/or ConnectServer next.
func New(host transport.Host, cfg Config) *Client {
	if cfg.Name == "" {
		cfg.Name = "aMule 2.2.2"
	}
	if cfg.Version == 0 {
		cfg.Version = 0x3C
	}
	return &Client{
		host: host,
		cfg:  cfg,
		helloTags: wire.Tags{
			wire.StringTag(wire.TagName, cfg.Name),
			wire.UintTag(wire.TagVersion, cfg.Version),
		},
	}
}

// Host returns the underlying transport host.
func (c *Client) Host() transport.Host { return c.host }

// Config returns the client configuration.
func (c *Client) Config() Config { return c.cfg }

// ClientID returns the server-assigned ID (zero before login completes).
func (c *Client) ClientID() ed2k.ClientID { return c.clientID }

// Connected reports whether the server session is up.
func (c *Client) Connected() bool { return c.connected }

// Listen opens the peer port (no-op when cfg.Port is 0).
func (c *Client) Listen() error {
	if c.cfg.Port == 0 || c.listener != nil {
		return nil
	}
	l, err := c.host.Listen(c.cfg.Port, wire.PeerSpace, func(conn transport.Conn) {
		var ps *PeerSession
		if c.Acceptor != nil {
			ps = c.Acceptor.AcceptPeer(conn.RemoteAddr())
		} else {
			ps = new(PeerSession)
		}
		ps.init(c, conn)
		ps.attach()
	})
	if err != nil {
		return err
	}
	c.listener = l
	return nil
}

// Close tears down the client: server link, listener, keep-alive.
func (c *Client) Close() {
	c.keepAlive.Stop()
	if c.serverConn != nil {
		c.serverConn.Close()
		c.serverConn = nil
		c.connected = false
	}
	if c.listener != nil {
		c.listener.Close()
		c.listener = nil
	}
}

// ---------------------------------------------------------------------------
// Server session.

// ConnectServer dials the directory server and logs in; h (nil for
// none) observes the session. A live session is dropped first, unseen by
// its handler, so that its close cannot end the new one; so is the
// outcome of a dial in flight, which is then made again.
func (c *Client) ConnectServer(addr netip.AddrPort, h ServerHandler) {
	if h == nil {
		h = NopServerHandler{}
	}
	if c.serverConn != nil {
		c.serverConn.SetHandler(nil)
		c.serverConn.Close()
		c.serverConn, c.connected = nil, false
		c.keepAlive.Stop()
	}
	if addr != c.serverAddr {
		c.hello, c.helloAnswer = nil, nil
	}
	c.serverAddr = addr
	c.serverHandler = h
	if c.dialing {
		c.redial = true
		return
	}
	c.dialing = true
	c.host.Dial(addr, wire.ServerSpace, (*serverLink)(c))
}

// serverLink is the Client as the dial and connection handler of its
// server session: a conversion, so the session costs no closure.
type serverLink Client

// HandleDial implements transport.DialHandler.
func (s *serverLink) HandleDial(conn transport.Conn, err error) {
	c := (*Client)(s)
	c.dialing = false
	if c.redial { // ConnectServer drops conn, if any, and dials again
		c.redial, c.serverConn = false, conn
		c.ConnectServer(c.serverAddr, c.serverHandler)
		return
	}
	if err != nil {
		c.serverHandler.HandleDisconnected(err)
		return
	}
	c.serverConn = conn
	conn.SetHandler(s)
	conn.Send(&wire.LoginRequest{
		UserHash: c.cfg.UserHash,
		Port:     c.cfg.Port,
		Tags: wire.Tags{
			wire.StringTag(wire.TagName, c.cfg.Name),
			wire.UintTag(wire.TagVersion, c.cfg.Version),
			wire.UintTag(wire.TagPort, uint32(c.cfg.Port)),
		},
	})
}

// HandleMessage implements transport.ConnHandler.
func (s *serverLink) HandleMessage(m wire.Message) { (*Client)(s).onServerMessage(m) }

// HandleClose implements transport.ConnHandler.
func (s *serverLink) HandleClose(err error) {
	c := (*Client)(s)
	c.connected = false
	c.serverConn = nil
	c.keepAlive.Stop()
	c.serverHandler.HandleDisconnected(err)
}

func (c *Client) onServerMessage(m wire.Message) {
	switch msg := m.(type) {
	case *wire.IDChange:
		if id := ed2k.ClientID(msg.ClientID); id != c.clientID {
			c.clientID = id
			c.hello, c.helloAnswer = nil, nil
		}
		c.connected = true
		if len(c.shared) > 0 && !c.cfg.NoOffer {
			c.sendOffer(0)
		}
		c.scheduleKeepAlive()
		c.serverHandler.HandleConnected(c.clientID)
	case *wire.FoundSources:
		c.serverHandler.HandleSources(msg.Hash, msg.Sources)
	case *wire.SearchResult:
		c.serverHandler.HandleSearchResult(msg.Files)
	case *wire.ServerStatus:
		c.serverHandler.HandleStatus(msg.Users, msg.Files)
	case *wire.ServerMessage, *wire.ServerIdent, *wire.ServerList, *wire.Reject:
		// informational
	}
}

func (c *Client) scheduleKeepAlive() {
	if c.cfg.KeepAlive <= 0 {
		return
	}
	c.keepAlive.Stop()
	c.keepAlive = c.host.AfterCall(c.cfg.KeepAlive, keepAliveEvent, c, nil)
}

// keepAliveOffer is the keep-alive: an empty OFFER-FILES. Receivers
// only read messages, so every client sends this one.
var keepAliveOffer = &wire.OfferFiles{}

// keepAliveEvent is the keep-alive timer of client recv.
func keepAliveEvent(recv, _ any) {
	c := recv.(*Client)
	if c.connected && c.serverConn != nil {
		c.serverConn.Send(keepAliveOffer)
		c.scheduleKeepAlive()
	}
}

// sendOffer announces the shared files from index from on.
func (c *Client) sendOffer(from int) {
	if c.serverConn == nil {
		return
	}
	c.serverConn.Send(&wire.OfferFiles{Files: c.entryList()[from:]})
}

// entryList returns the wire entries of the whole shared list, encoding
// the files shared since the last call. The result is a snapshot that
// later Shares never touch: the list is append-only and the snapshot's
// capacity ends at its length.
func (c *Client) entryList() []wire.FileEntry {
	fresh := c.shared[len(c.entries):]
	c.entries = slices.Grow(c.entries, len(fresh))
	tags := make(wire.Tags, 0, 3*len(fresh)) // one array for the new entries' tags
	for _, f := range fresh {
		n := len(tags)
		tags = wire.AppendFileTags(tags, f.Name, f.Size, f.Type)
		c.entries = append(c.entries, wire.FileEntry{Hash: f.Hash, Tags: tags[n:len(tags):len(tags)]})
	}
	return c.entries[:len(c.entries):len(c.entries)]
}

// Share adds files to the shared list and announces new ones to the
// server. Duplicates (by hash) are ignored.
func (c *Client) Share(files ...SharedFile) {
	if c.sharedByKey == nil {
		c.sharedByKey = make(map[ed2k.Hash]int, len(files))
		c.shared = make([]SharedFile, 0, len(files))
	}
	from := len(c.shared)
	for _, f := range files {
		if _, dup := c.sharedByKey[f.Hash]; dup {
			continue
		}
		c.sharedByKey[f.Hash] = len(c.shared)
		c.shared = append(c.shared, f)
	}
	if len(c.shared) > from && c.connected && !c.cfg.NoOffer {
		c.sendOffer(from)
	}
}

// Shared returns the shared list (callers must not mutate it).
func (c *Client) Shared() []SharedFile { return c.shared }

// SharedFile looks up a shared file by hash.
func (c *Client) SharedFile(h ed2k.Hash) (SharedFile, bool) {
	i, ok := c.sharedByKey[h]
	if !ok {
		return SharedFile{}, false
	}
	return c.shared[i], true
}

// GetSources asks the server for providers of h.
func (c *Client) GetSources(h ed2k.Hash) {
	if c.serverConn != nil {
		c.serverConn.Send(&wire.GetSources{Hash: h})
	}
}

// Search sends a keyword query.
func (c *Client) Search(query string) {
	if c.serverConn != nil {
		c.serverConn.Send(&wire.SearchRequest{Query: query})
	}
}

// ---------------------------------------------------------------------------
// Peer sessions.

// PeerInfo is what a HELLO/HELLO-ANSWER reveals about the remote peer.
type PeerInfo struct {
	UserHash   ed2k.Hash
	ClientID   uint32
	Port       uint16
	Name       string
	Version    uint32
	ServerIP   uint32
	ServerPort uint16
}

func peerInfoFrom(h ed2k.Hash, id uint32, port uint16, tags wire.Tags, sip uint32, sport uint16) PeerInfo {
	return PeerInfo{
		UserHash: h, ClientID: id, Port: port,
		Name:     tags.Str(wire.TagName),
		Version:  tags.Uint(wire.TagVersion),
		ServerIP: sip, ServerPort: sport,
	}
}

// PeerHandler observes and steers a peer session. Built-in protocol
// behavior (HELLO-ANSWER, browse answers, file-name answers,
// FILE-STATUS) runs first; the handler runs after it.
type PeerHandler interface {
	HandleHello(info PeerInfo)
	HandleHelloAnswer(info PeerInfo)
	HandleStartUpload(file ed2k.Hash)
	HandleAcceptUpload()
	HandleQueueRank(rank uint32)
	HandleRequestParts(req *wire.RequestParts)
	HandleSendingPart(part *wire.SendingPart)
	HandleSharedList(files []wire.FileEntry)
	HandleEndOfDownload(file ed2k.Hash)
	// HandleMessage sees every message, after its specific handler.
	HandleMessage(m wire.Message)
	// HandleClose fires once when the session's connection dies.
	HandleClose(err error)
}

// NopPeerHandler ignores every event. Embed it in an owner struct to
// implement only the events it needs.
type NopPeerHandler struct{}

func (NopPeerHandler) HandleHello(PeerInfo)                  {}
func (NopPeerHandler) HandleHelloAnswer(PeerInfo)            {}
func (NopPeerHandler) HandleStartUpload(ed2k.Hash)           {}
func (NopPeerHandler) HandleAcceptUpload()                   {}
func (NopPeerHandler) HandleQueueRank(uint32)                {}
func (NopPeerHandler) HandleRequestParts(*wire.RequestParts) {}
func (NopPeerHandler) HandleSendingPart(*wire.SendingPart)   {}
func (NopPeerHandler) HandleSharedList([]wire.FileEntry)     {}
func (NopPeerHandler) HandleEndOfDownload(ed2k.Hash)         {}
func (NopPeerHandler) HandleMessage(wire.Message)            {}
func (NopPeerHandler) HandleClose(error)                     {}

// PeerDialer receives the outcome of DialPeerSession: the session (its handler
// not yet installed — install it here) or an error.
type PeerDialer interface {
	HandlePeerDial(ps *PeerSession, err error)
}

// PeerAcceptor owns a client's inbound peer sessions.
type PeerAcceptor interface {
	// AcceptPeer is called for each inbound connection, from remote,
	// before any message is processed. It returns the session to run
	// the conversation in: a zero PeerSession, typically embedded in
	// the acceptor's own per-session struct, whose handler it may
	// install first (SetHandler). The session is connected once
	// AcceptPeer returns.
	AcceptPeer(remote netip.AddrPort) *PeerSession
}

// PeerSession is one client<->client conversation. Its zero value is
// session memory for DialPeerSession or a PeerAcceptor; a session is
// only ever run once.
type PeerSession struct {
	client  *Client
	conn    transport.Conn
	handler PeerHandler
	dialer  PeerDialer // an outbound session's, until the dial resolves

	remote      PeerInfo
	gotHello    bool
	currentFile ed2k.Hash
	closed      bool
}

// init binds the session to its client and connection (nil until an
// outbound dial resolves), keeping a handler installed before.
func (ps *PeerSession) init(c *Client, conn transport.Conn) {
	ps.client, ps.conn = c, conn
	if ps.handler == nil {
		ps.handler = NopPeerHandler{}
	}
}

// sessionLink is a PeerSession as the dial and connection handler of
// its transport: a conversion, so a session binds no closure.
type sessionLink PeerSession

// attach installs the connection handler; called after the owner had a
// chance to set the session's handler.
func (ps *PeerSession) attach() { ps.conn.SetHandler((*sessionLink)(ps)) }

// HandleDial implements transport.DialHandler for an outbound session.
func (l *sessionLink) HandleDial(conn transport.Conn, err error) {
	ps := (*PeerSession)(l)
	d := ps.dialer
	ps.dialer = nil
	if err != nil {
		d.HandlePeerDial(nil, err)
		return
	}
	ps.conn = conn
	d.HandlePeerDial(ps, nil)
	ps.attach()
}

// HandleMessage implements transport.ConnHandler.
func (l *sessionLink) HandleMessage(m wire.Message) { (*PeerSession)(l).onMessage(m) }

// HandleClose implements transport.ConnHandler.
func (l *sessionLink) HandleClose(err error) {
	ps := (*PeerSession)(l)
	ps.closed = true
	ps.handler.HandleClose(err)
}

// SetHandler installs the session's observer; nil ignores every event.
// For inbound sessions call it from the client's PeerAcceptor; for
// outbound sessions call it before any reply can arrive (in the
// PeerDialer).
func (ps *PeerSession) SetHandler(h PeerHandler) {
	if h == nil {
		h = NopPeerHandler{}
	}
	ps.handler = h
}

// Remote returns what the remote peer declared about itself.
func (ps *PeerSession) Remote() PeerInfo { return ps.remote }

// RemoteAddr returns the remote endpoint.
func (ps *PeerSession) RemoteAddr() netip.AddrPort { return ps.conn.RemoteAddr() }

// Closed reports whether the session ended.
func (ps *PeerSession) Closed() bool { return ps.closed }

// Close ends the session.
func (ps *PeerSession) Close() {
	if !ps.closed {
		ps.closed = true
		ps.conn.Close()
	}
}

// DialPeerSession opens an outbound peer session in ps, a zero
// PeerSession the caller owns — typically embedded in its per-contact
// struct, so the contact allocates no session of its own. done receives
// ps (handler not yet installed — install it in done) or an error.
func (c *Client) DialPeerSession(ps *PeerSession, addr netip.AddrPort, done PeerDialer) {
	ps.init(c, nil)
	ps.dialer = done
	c.host.Dial(addr, wire.PeerSpace, (*sessionLink)(ps))
}

// builtHook, when set, sees every message a client builds to send more
// than once, as it is built. Tests use it to check that what receivers
// were sent was never written to.
var builtHook func(wire.Message)

// built passes a message built to be sent more than once to builtHook.
func built[M wire.Message](m M) M {
	if builtHook != nil {
		builtHook(m)
	}
	return m
}

// helloBody is what HELLO and HELLO-ANSWER carry about the client.
func (c *Client) helloBody() wire.Hello {
	var sip uint32
	var sport uint16
	if c.serverAddr.IsValid() {
		if ep, err := wire.EndpointFromAddrPort(c.serverAddr); err == nil {
			sip, sport = ep.IP, ep.Port
		}
	}
	return wire.Hello{UserHash: c.cfg.UserHash, ClientID: uint32(c.clientID), Port: c.cfg.Port, Tags: c.helloTags, ServerIP: sip, ServerPort: sport}
}

// helloMsg returns the client's HELLO, building it on first need.
func (c *Client) helloMsg() *wire.Hello {
	if c.hello == nil {
		h := c.helloBody()
		c.hello = built(&h)
	}
	return c.hello
}

// helloAnswerMsg returns the client's HELLO-ANSWER, building it on
// first need.
func (c *Client) helloAnswerMsg() *wire.HelloAnswer {
	if c.helloAnswer == nil {
		a := wire.HelloAnswer(c.helloBody())
		c.helloAnswer = built(&a)
	}
	return c.helloAnswer
}

// fileStatusMsg returns the FILE-STATUS of shared file i, building it
// on first need.
func (c *Client) fileStatusMsg(i int) *wire.FileStatus {
	if n := len(c.shared); len(c.fileStatus) < n {
		c.fileStatus = append(c.fileStatus, make([]*wire.FileStatus, n-len(c.fileStatus))...)
	}
	if c.fileStatus[i] == nil {
		f := c.shared[i]
		parts := ed2k.NumParts(f.Size)
		c.fileStatus[i] = built(&wire.FileStatus{Hash: f.Hash, Parts: uint16(parts), Bitmap: completeBitmap(parts)})
	}
	return c.fileStatus[i]
}

// emptyListAnswer is the ASK-SHARED-FILES-ANSWER of every client that
// does not allow browsing.
var emptyListAnswer = &wire.AskSharedFilesAnswer{}

// listAnswerMsg returns the client's ASK-SHARED-FILES-ANSWER, rebuilt
// when the shared list has grown since the last one.
func (c *Client) listAnswerMsg() *wire.AskSharedFilesAnswer {
	if !c.cfg.Browseable {
		return emptyListAnswer
	}
	if c.listAnswer == nil || len(c.listAnswer.Files) != len(c.shared) {
		c.listAnswer = built(&wire.AskSharedFilesAnswer{Files: c.entryList()})
	}
	return c.listAnswer
}

// completeFile is the FILE-STATUS bitmap of a file whose every part is
// present, shared read-only by every answer. It covers the 65,535 parts
// the message's part count can name.
var completeFile = bytes.Repeat([]byte{0xFF}, 1<<16/8)

// completeBitmap returns the all-ones bitmap of a file with n parts.
func completeBitmap(n int) []byte {
	w := (n + 7) / 8
	if w > len(completeFile) {
		return bytes.Repeat([]byte{0xFF}, w)
	}
	return completeFile[:w:w]
}

// SendHello starts the conversation on an outbound session.
func (ps *PeerSession) SendHello() { ps.conn.Send(ps.client.helloMsg()) }

// StartUpload requests an upload slot for file h (SET-REQ-FILE-ID then
// START-UPLOAD, as real clients do).
func (ps *PeerSession) StartUpload(h ed2k.Hash) {
	c := ps.client
	if c.setReqFileID == nil || c.setReqFileID.Hash != h {
		c.setReqFileID = built(&wire.SetReqFileID{Hash: h})
		c.startUpload = built(&wire.StartUploadReq{Hash: h})
	}
	ps.conn.Send(c.setReqFileID)
	ps.conn.Send(c.startUpload)
}

// AcceptUpload grants the remote peer's upload request.
func (ps *PeerSession) AcceptUpload() { ps.conn.Send(&wire.AcceptUploadReq{}) }

// SendQueueRank reports a queue position instead of accepting.
func (ps *PeerSession) SendQueueRank(rank uint32) { ps.conn.Send(&wire.QueueRank{Rank: rank}) }

// RequestParts asks for up to three byte ranges of file h.
func (ps *PeerSession) RequestParts(h ed2k.Hash, ranges ...[2]uint32) {
	req := &wire.RequestParts{Hash: h}
	for i, r := range ranges {
		if i >= 3 {
			break
		}
		req.Start[i], req.End[i] = r[0], r[1]
	}
	ps.conn.Send(req)
}

// SendPart ships one content block.
func (ps *PeerSession) SendPart(h ed2k.Hash, start, end uint32, data []byte) {
	ps.conn.Send(&wire.SendingPart{Hash: h, Start: start, End: end, Data: data})
}

// AskSharedFiles requests the remote shared list (browse).
func (ps *PeerSession) AskSharedFiles() { ps.conn.Send(&wire.AskSharedFiles{}) }

// Send transmits an arbitrary message on the session.
func (ps *PeerSession) Send(m wire.Message) { ps.conn.Send(m) }

func (ps *PeerSession) onMessage(m wire.Message) {
	switch msg := m.(type) {
	case *wire.Hello:
		ps.remote = peerInfoFrom(msg.UserHash, msg.ClientID, msg.Port, msg.Tags, msg.ServerIP, msg.ServerPort)
		ps.gotHello = true
		// Built-in: answer the handshake.
		ps.conn.Send(ps.client.helloAnswerMsg())
		ps.handler.HandleHello(ps.remote)
	case *wire.HelloAnswer:
		ps.remote = peerInfoFrom(msg.UserHash, msg.ClientID, msg.Port, msg.Tags, msg.ServerIP, msg.ServerPort)
		ps.handler.HandleHelloAnswer(ps.remote)
	case *wire.RequestFileName:
		if f, ok := ps.client.SharedFile(msg.Hash); ok {
			ps.conn.Send(&wire.FileReqAnswer{Hash: msg.Hash, Name: f.Name})
		} else {
			ps.conn.Send(&wire.FileReqAnsNoFile{Hash: msg.Hash})
		}
	case *wire.SetReqFileID:
		ps.currentFile = msg.Hash
		if i, ok := ps.client.sharedByKey[msg.Hash]; ok {
			ps.conn.Send(ps.client.fileStatusMsg(i))
		} else {
			ps.conn.Send(&wire.FileReqAnsNoFile{Hash: msg.Hash})
		}
	case *wire.StartUploadReq:
		file := msg.Hash
		if file.Zero() {
			file = ps.currentFile
		}
		ps.handler.HandleStartUpload(file)
	case *wire.AcceptUploadReq:
		ps.handler.HandleAcceptUpload()
	case *wire.QueueRank:
		ps.handler.HandleQueueRank(msg.Rank)
	case *wire.RequestParts:
		ps.handler.HandleRequestParts(msg)
	case *wire.SendingPart:
		ps.handler.HandleSendingPart(msg)
	case *wire.AskSharedFiles:
		// Built-in: honour the Browseable setting.
		ps.conn.Send(ps.client.listAnswerMsg())
	case *wire.AskSharedFilesAnswer:
		ps.handler.HandleSharedList(msg.Files)
	case *wire.EndOfDownload:
		ps.handler.HandleEndOfDownload(msg.Hash)
	case *wire.HashSetRequest:
		// The honeypot's synthetic files have no real content; answer
		// with a deterministic fake hashset as the random-content
		// strategy implies.
		if f, ok := ps.client.SharedFile(msg.Hash); ok {
			n := ed2k.NumParts(f.Size)
			parts := make([]ed2k.Hash, n)
			for i := range parts {
				parts[i] = ed2k.SyntheticHash(f.Hash.String() + "/part")
			}
			ps.conn.Send(&wire.HashSetAnswer{Hash: msg.Hash, Parts: parts})
		}
	}
	ps.handler.HandleMessage(m)
}
