// Package client implements the eDonkey client engine: the server session
// (login, OFFER-FILES announcements and keep-alives, GET-SOURCES and
// SEARCH queries) and peer sessions (the Fig. 1 message exchange of the
// paper: HELLO → HELLO-ANSWER → START-UPLOAD → ACCEPT-UPLOAD →
// REQUEST-PART → SENDING-PART, plus the browse extension).
//
// The honeypot (package honeypot) and the simulated peer population
// (package peersim) are both thin layers over this engine, mirroring how
// the paper built its honeypot by modifying the aMule client core.
package client

import (
	"net/netip"
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

// Entry converts to the wire representation.
func (f SharedFile) Entry() wire.FileEntry {
	return wire.NewFileEntry(f.Hash, f.Name, f.Size, f.Type)
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

// ServerHooks observe the server session.
type ServerHooks struct {
	// OnConnected fires after ID-CHANGE with the assigned ID.
	OnConnected func(id ed2k.ClientID)
	// OnSources fires for each FOUND-SOURCES reply.
	OnSources func(file ed2k.Hash, sources []wire.Endpoint)
	// OnSearchResult fires for each SEARCH-RESULT reply.
	OnSearchResult func(files []wire.FileEntry)
	// OnStatus fires for SERVER-STATUS updates.
	OnStatus func(users, files uint32)
	// OnDisconnected fires when the server link dies (nil = graceful).
	OnDisconnected func(err error)
}

// Client is the engine instance bound to one host.
type Client struct {
	host transport.Host
	cfg  Config

	serverConn  transport.Conn
	serverAddr  netip.AddrPort
	serverHooks ServerHooks
	clientID    ed2k.ClientID
	connected   bool
	keepAlive   transport.Timer
	// keepAliveTick is c.sendKeepAlive, bound by the first arm and
	// reused by every re-arm.
	keepAliveTick func()

	shared      []SharedFile
	sharedByKey map[ed2k.Hash]int

	listener transport.Listener
	// OnPeerSession is invoked for every inbound peer session right after
	// creation, before any message is processed; install hooks there.
	OnPeerSession func(ps *PeerSession)
}

// New creates a client on host. Call Listen and/or ConnectServer next.
func New(host transport.Host, cfg Config) *Client {
	if cfg.Name == "" {
		cfg.Name = "aMule 2.2.2"
	}
	if cfg.Version == 0 {
		cfg.Version = 0x3C
	}
	return &Client{host: host, cfg: cfg, sharedByKey: make(map[ed2k.Hash]int)}
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
		ps := c.newPeerSession(conn)
		if c.OnPeerSession != nil {
			c.OnPeerSession(ps)
		}
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

// ConnectServer dials the directory server and logs in.
func (c *Client) ConnectServer(addr netip.AddrPort, hooks ServerHooks) {
	c.serverAddr = addr
	c.serverHooks = hooks
	c.host.Dial(addr, wire.ServerSpace, func(conn transport.Conn, err error) {
		if err != nil {
			if hooks.OnDisconnected != nil {
				hooks.OnDisconnected(err)
			}
			return
		}
		c.serverConn = conn
		conn.SetHooks(transport.ConnHooks{
			OnMessage: c.onServerMessage,
			OnClose: func(err error) {
				c.connected = false
				c.serverConn = nil
				c.keepAlive.Stop()
				if hooks.OnDisconnected != nil {
					hooks.OnDisconnected(err)
				}
			},
		})
		conn.Send(&wire.LoginRequest{
			UserHash: c.cfg.UserHash,
			Port:     c.cfg.Port,
			Tags: wire.Tags{
				wire.StringTag(wire.TagName, c.cfg.Name),
				wire.UintTag(wire.TagVersion, c.cfg.Version),
				wire.UintTag(wire.TagPort, uint32(c.cfg.Port)),
			},
		})
	})
}

func (c *Client) onServerMessage(m wire.Message) {
	switch msg := m.(type) {
	case *wire.IDChange:
		c.clientID = ed2k.ClientID(msg.ClientID)
		c.connected = true
		if len(c.shared) > 0 && !c.cfg.NoOffer {
			c.sendOffer(c.shared)
		}
		c.scheduleKeepAlive()
		if c.serverHooks.OnConnected != nil {
			c.serverHooks.OnConnected(c.clientID)
		}
	case *wire.FoundSources:
		if c.serverHooks.OnSources != nil {
			c.serverHooks.OnSources(msg.Hash, msg.Sources)
		}
	case *wire.SearchResult:
		if c.serverHooks.OnSearchResult != nil {
			c.serverHooks.OnSearchResult(msg.Files)
		}
	case *wire.ServerStatus:
		if c.serverHooks.OnStatus != nil {
			c.serverHooks.OnStatus(msg.Users, msg.Files)
		}
	case *wire.ServerMessage, *wire.ServerIdent, *wire.ServerList, *wire.Reject:
		// informational
	}
}

func (c *Client) scheduleKeepAlive() {
	if c.cfg.KeepAlive <= 0 {
		return
	}
	if c.keepAliveTick == nil {
		c.keepAliveTick = c.sendKeepAlive
	}
	c.keepAlive.Stop()
	c.keepAlive = c.host.After(c.cfg.KeepAlive, c.keepAliveTick)
}

func (c *Client) sendKeepAlive() {
	if c.connected && c.serverConn != nil {
		c.serverConn.Send(&wire.OfferFiles{}) // keep-alive form
		c.scheduleKeepAlive()
	}
}

func (c *Client) sendOffer(files []SharedFile) {
	if c.serverConn == nil {
		return
	}
	offer := &wire.OfferFiles{Files: make([]wire.FileEntry, 0, len(files))}
	for _, f := range files {
		offer.Files = append(offer.Files, f.Entry())
	}
	c.serverConn.Send(offer)
}

// Share adds files to the shared list and announces new ones to the
// server. Duplicates (by hash) are ignored.
func (c *Client) Share(files ...SharedFile) {
	var fresh []SharedFile
	for _, f := range files {
		if _, dup := c.sharedByKey[f.Hash]; dup {
			continue
		}
		c.sharedByKey[f.Hash] = len(c.shared)
		c.shared = append(c.shared, f)
		fresh = append(fresh, f)
	}
	if len(fresh) > 0 && c.connected && !c.cfg.NoOffer {
		c.sendOffer(fresh)
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

// PeerHooks observe and steer a peer session. All hooks are optional.
// Built-in protocol behavior (HELLO-ANSWER, browse answers, file-name
// answers, FILE-STATUS) runs first; hooks run after it.
type PeerHooks struct {
	OnHello         func(info PeerInfo)
	OnHelloAnswer   func(info PeerInfo)
	OnStartUpload   func(file ed2k.Hash)
	OnAcceptUpload  func()
	OnQueueRank     func(rank uint32)
	OnRequestParts  func(req *wire.RequestParts)
	OnSendingPart   func(part *wire.SendingPart)
	OnSharedList    func(files []wire.FileEntry)
	OnEndOfDownload func(file ed2k.Hash)
	OnMessage       func(m wire.Message) // every message, after specific hooks
	OnClose         func(err error)
}

// PeerSession is one client<->client conversation.
type PeerSession struct {
	client *Client
	conn   transport.Conn
	hooks  PeerHooks

	remote      PeerInfo
	gotHello    bool
	currentFile ed2k.Hash
	closed      bool
}

func (c *Client) newPeerSession(conn transport.Conn) *PeerSession {
	return &PeerSession{client: c, conn: conn}
}

// attach installs the connection hooks; called after the owner had a
// chance to set session hooks.
func (ps *PeerSession) attach() {
	ps.conn.SetHooks(transport.ConnHooks{
		OnMessage: ps.onMessage,
		OnClose: func(err error) {
			ps.closed = true
			if ps.hooks.OnClose != nil {
				ps.hooks.OnClose(err)
			}
		},
	})
}

// SetHooks installs the observer hooks. For inbound sessions call it from
// Client.OnPeerSession; for outbound sessions call it before any reply
// can arrive (immediately after DialPeer's callback fires).
func (ps *PeerSession) SetHooks(h PeerHooks) { ps.hooks = h }

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

// DialPeer opens an outbound peer session. done receives the session
// (hooks not yet installed — install them in done) or an error.
func (c *Client) DialPeer(addr netip.AddrPort, done func(*PeerSession, error)) {
	c.host.Dial(addr, wire.PeerSpace, func(conn transport.Conn, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		ps := c.newPeerSession(conn)
		done(ps, nil)
		ps.attach()
	})
}

func (c *Client) helloBody() (ed2k.Hash, uint32, uint16, wire.Tags, uint32, uint16) {
	var sip uint32
	var sport uint16
	if c.serverAddr.IsValid() {
		if ep, err := wire.EndpointFromAddrPort(c.serverAddr); err == nil {
			sip, sport = ep.IP, ep.Port
		}
	}
	tags := wire.Tags{
		wire.StringTag(wire.TagName, c.cfg.Name),
		wire.UintTag(wire.TagVersion, c.cfg.Version),
	}
	return c.cfg.UserHash, uint32(c.clientID), c.cfg.Port, tags, sip, sport
}

// SendHello starts the conversation on an outbound session.
func (ps *PeerSession) SendHello() {
	h, id, port, tags, sip, sport := ps.client.helloBody()
	ps.conn.Send(&wire.Hello{UserHash: h, ClientID: id, Port: port, Tags: tags, ServerIP: sip, ServerPort: sport})
}

// StartUpload requests an upload slot for file h (SET-REQ-FILE-ID then
// START-UPLOAD, as real clients do).
func (ps *PeerSession) StartUpload(h ed2k.Hash) {
	ps.conn.Send(&wire.SetReqFileID{Hash: h})
	ps.conn.Send(&wire.StartUploadReq{Hash: h})
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
		h, id, port, tags, sip, sport := ps.client.helloBody()
		ps.conn.Send(&wire.HelloAnswer{UserHash: h, ClientID: id, Port: port, Tags: tags, ServerIP: sip, ServerPort: sport})
		if ps.hooks.OnHello != nil {
			ps.hooks.OnHello(ps.remote)
		}
	case *wire.HelloAnswer:
		ps.remote = peerInfoFrom(msg.UserHash, msg.ClientID, msg.Port, msg.Tags, msg.ServerIP, msg.ServerPort)
		if ps.hooks.OnHelloAnswer != nil {
			ps.hooks.OnHelloAnswer(ps.remote)
		}
	case *wire.RequestFileName:
		if f, ok := ps.client.SharedFile(msg.Hash); ok {
			ps.conn.Send(&wire.FileReqAnswer{Hash: msg.Hash, Name: f.Name})
		} else {
			ps.conn.Send(&wire.FileReqAnsNoFile{Hash: msg.Hash})
		}
	case *wire.SetReqFileID:
		ps.currentFile = msg.Hash
		if f, ok := ps.client.SharedFile(msg.Hash); ok {
			parts := ed2k.NumParts(f.Size)
			bitmap := make([]byte, (parts+7)/8)
			for i := range bitmap {
				bitmap[i] = 0xFF
			}
			ps.conn.Send(&wire.FileStatus{Hash: msg.Hash, Parts: uint16(parts), Bitmap: bitmap})
		} else {
			ps.conn.Send(&wire.FileReqAnsNoFile{Hash: msg.Hash})
		}
	case *wire.StartUploadReq:
		file := msg.Hash
		if file.Zero() {
			file = ps.currentFile
		}
		if ps.hooks.OnStartUpload != nil {
			ps.hooks.OnStartUpload(file)
		}
	case *wire.AcceptUploadReq:
		if ps.hooks.OnAcceptUpload != nil {
			ps.hooks.OnAcceptUpload()
		}
	case *wire.QueueRank:
		if ps.hooks.OnQueueRank != nil {
			ps.hooks.OnQueueRank(msg.Rank)
		}
	case *wire.RequestParts:
		if ps.hooks.OnRequestParts != nil {
			ps.hooks.OnRequestParts(msg)
		}
	case *wire.SendingPart:
		if ps.hooks.OnSendingPart != nil {
			ps.hooks.OnSendingPart(msg)
		}
	case *wire.AskSharedFiles:
		// Built-in: honour the Browseable setting.
		ans := &wire.AskSharedFilesAnswer{}
		if ps.client.cfg.Browseable {
			for _, f := range ps.client.shared {
				ans.Files = append(ans.Files, f.Entry())
			}
		}
		ps.conn.Send(ans)
	case *wire.AskSharedFilesAnswer:
		if ps.hooks.OnSharedList != nil {
			ps.hooks.OnSharedList(msg.Files)
		}
	case *wire.EndOfDownload:
		if ps.hooks.OnEndOfDownload != nil {
			ps.hooks.OnEndOfDownload(msg.Hash)
		}
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
	if ps.hooks.OnMessage != nil {
		ps.hooks.OnMessage(m)
	}
}
