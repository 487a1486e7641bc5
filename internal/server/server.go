// Package server implements an eDonkey directory server: the substrate
// the paper's honeypots sit on. It accepts client logins, assigns high or
// low clientIDs (probing the client's advertised port to decide, as
// lugdunum-style servers do), indexes OFFER-FILES announcements, and
// answers GET-SOURCES and keyword SEARCH queries.
//
// The server is a transport actor: the same code serves simulated
// campaigns (package netsim) and real TCP clients (package livenet,
// cmd/edonkeyd).
package server

import (
	"net/netip"
	"strings"
	"time"

	"repro/internal/ed2k"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Config tunes the server.
type Config struct {
	// Name is the server's display name.
	Name string
	// Port is the listening port (the eDonkey convention is 4661).
	Port uint16
	// MaxSources caps the endpoints per FOUND-SOURCES reply.
	MaxSources int
	// SessionTimeout drops clients that stay silent this long (clients
	// refresh with empty OFFER-FILES keep-alives).
	SessionTimeout time.Duration
	// ProbeCallback controls low/high ID assignment: when true the server
	// dials back the client's advertised port and assigns a low ID when
	// the probe fails. When false every client gets a high ID.
	ProbeCallback bool
	// KnownServers is returned in SERVER-LIST replies, letting clients
	// discover the rest of a multi-server deployment.
	KnownServers []netip.AddrPort
}

// DefaultConfig returns production-like defaults.
func DefaultConfig(name string) Config {
	return Config{
		Name:           name,
		Port:           4661,
		MaxSources:     100,
		SessionTimeout: 90 * time.Minute,
		ProbeCallback:  true,
	}
}

// maxSearchResults caps SEARCH-RESULT entries.
const maxSearchResults = 50

// Stats counts server activity.
type Stats struct {
	Logins       int
	LowIDLogins  int
	Offers       int
	FilesIndexed int
	GetSources   int
	Searches     int
	Dropped      int // sessions reaped by timeout
}

// Server is the directory server actor.
type Server struct {
	host transport.Host
	cfg  Config
	hash ed2k.Hash

	listener transport.Listener
	sessions map[uint32]*session // by clientID
	// providerIndex maps file hash -> ordered provider list.
	files map[ed2k.Hash]*fileRecord
	// keyword index for SEARCH.
	keywords map[string]map[ed2k.Hash]struct{}

	lowIDNext uint32
	stats     Stats
	// identTags are the tags of every SERVER-IDENT, built once.
	identTags wire.Tags
	// welcome is the MOTD sent after login.
	welcome string
}

type fileRecord struct {
	meta      wire.FileEntry
	providers []provider // append-ordered, deduped by clientID
}

type provider struct {
	clientID uint32
	port     uint16
}

// session is one client's connection; it is that connection's handler,
// and the dial handler of its callback probe.
type session struct {
	srv      *Server
	conn     transport.Conn
	userHash ed2k.Hash
	clientID ed2k.ClientID
	port     uint16
	name     string
	shared   []ed2k.Hash
	lastSeen time.Time
	loggedIn bool
	// probeID is the high ID a pending callback probe grants.
	probeID ed2k.ClientID
}

// New creates a server on the host. Call Start to begin listening.
func New(host transport.Host, cfg Config) *Server {
	return &Server{
		host:      host,
		cfg:       cfg,
		hash:      ed2k.SyntheticHash("server:" + cfg.Name),
		sessions:  make(map[uint32]*session),
		files:     make(map[ed2k.Hash]*fileRecord),
		keywords:  make(map[string]map[ed2k.Hash]struct{}),
		lowIDNext: 1,
		identTags: wire.Tags{wire.StringTag(wire.TagName, cfg.Name)},
		welcome:   "server " + cfg.Name + " (repro build)",
	}
}

// Addr returns the server's address.
func (s *Server) Addr() netip.AddrPort {
	return netip.AddrPortFrom(s.host.Addr(), s.cfg.Port)
}

// Stats returns a copy of the activity counters.
func (s *Server) Stats() Stats { return s.stats }

// Users returns the number of logged-in sessions.
func (s *Server) Users() int { return len(s.sessions) }

// FilesIndexed returns the number of distinct indexed files.
func (s *Server) FilesIndexed() int { return len(s.files) }

// Start begins listening and the keep-alive reaper.
func (s *Server) Start() error {
	l, err := s.host.Listen(s.cfg.Port, wire.ServerSpace, s.accept)
	if err != nil {
		return err
	}
	s.listener = l
	if s.cfg.SessionTimeout > 0 {
		s.host.AfterCall(s.cfg.SessionTimeout/2, reapEvent, s, nil)
	}
	return nil
}

// Stop closes the listener; established sessions stay until they drop.
func (s *Server) Stop() {
	if s.listener != nil {
		s.listener.Close()
		s.listener = nil
	}
}

// reapEvent is the keep-alive reaper of server recv.
func reapEvent(recv, _ any) {
	s := recv.(*Server)
	now := s.host.Now()
	for id, sess := range s.sessions {
		if now.Sub(sess.lastSeen) > s.cfg.SessionTimeout {
			s.stats.Dropped++
			s.dropSession(sess)
			delete(s.sessions, id)
		}
	}
	s.host.AfterCall(s.cfg.SessionTimeout/2, reapEvent, s, nil)
}

func (s *Server) accept(conn transport.Conn) {
	sess := &session{srv: s, conn: conn, lastSeen: s.host.Now()}
	conn.SetHandler(sess)
}

// HandleMessage implements transport.ConnHandler.
func (sess *session) HandleMessage(m wire.Message) { sess.srv.onMessage(sess, m) }

// HandleClose implements transport.ConnHandler.
func (sess *session) HandleClose(error) { sess.srv.onClose(sess) }

// HandleDial implements transport.DialHandler: the outcome of the
// callback probe of the session's login.
func (sess *session) HandleDial(c transport.Conn, err error) {
	s := sess.srv
	if err != nil {
		s.stats.LowIDLogins++
		s.finishLogin(sess, s.allocLowID())
		return
	}
	c.SetHandler(nil)
	c.Close()
	s.finishLogin(sess, sess.probeID)
}

func (s *Server) onClose(sess *session) {
	if sess.loggedIn {
		if cur, ok := s.sessions[uint32(sess.clientID)]; ok && cur == sess {
			delete(s.sessions, uint32(sess.clientID))
		}
		s.dropSession(sess)
	}
}

// dropSession removes the session's files from the index.
func (s *Server) dropSession(sess *session) {
	for _, h := range sess.shared {
		rec, ok := s.files[h]
		if !ok {
			continue
		}
		for i, p := range rec.providers {
			if p.clientID == uint32(sess.clientID) {
				rec.providers = append(rec.providers[:i], rec.providers[i+1:]...)
				break
			}
		}
		if len(rec.providers) == 0 {
			s.unindexKeywords(rec.meta)
			delete(s.files, h)
		}
	}
	sess.shared = nil
}

func (s *Server) onMessage(sess *session, m wire.Message) {
	sess.lastSeen = s.host.Now()
	switch msg := m.(type) {
	case *wire.LoginRequest:
		s.handleLogin(sess, msg)
	case *wire.OfferFiles:
		s.handleOffer(sess, msg)
	case *wire.GetSources:
		s.handleGetSources(sess, msg)
	case *wire.SearchRequest:
		s.handleSearch(sess, msg)
	case *wire.GetServerList:
		reply := &wire.ServerList{}
		for _, known := range s.cfg.KnownServers {
			if known == s.Addr() || len(reply.Servers) >= 255 {
				continue
			}
			if ep, err := wire.EndpointFromAddrPort(known); err == nil {
				reply.Servers = append(reply.Servers, ep)
			}
		}
		sess.conn.Send(reply)
	default:
		sess.conn.Send(&wire.Reject{})
	}
}

func (s *Server) handleLogin(sess *session, msg *wire.LoginRequest) {
	if sess.loggedIn {
		return // duplicate login, ignore
	}
	sess.userHash = msg.UserHash
	sess.port = msg.Port
	sess.name = msg.Tags.Str(wire.TagName)
	s.stats.Logins++

	remote := sess.conn.RemoteAddr()
	highID, err := ed2k.HighIDFor(remote.Addr())
	if err != nil || ed2k.ClientID(highID).Low() {
		s.finishLogin(sess, s.allocLowID())
		return
	}
	if !s.cfg.ProbeCallback || msg.Port == 0 {
		if msg.Port == 0 {
			s.stats.LowIDLogins++
			s.finishLogin(sess, s.allocLowID())
		} else {
			s.finishLogin(sess, highID)
		}
		return
	}
	// Callback probe: can we reach the advertised client port? Peers
	// behind NAT (which do not listen) become low IDs.
	sess.probeID = highID
	s.host.Dial(netip.AddrPortFrom(remote.Addr(), msg.Port), wire.PeerSpace, sess)
}

// finishLogin grants sess the client ID id and sends the login answers.
func (s *Server) finishLogin(sess *session, id ed2k.ClientID) {
	sess.clientID = id
	sess.loggedIn = true
	if old, ok := s.sessions[uint32(id)]; ok && old != sess {
		s.dropSession(old)
		old.conn.Close()
	}
	s.sessions[uint32(id)] = sess
	sess.conn.Send(&wire.IDChange{ClientID: uint32(id), Flags: 1})
	sess.conn.Send(&wire.ServerMessage{Text: s.welcome})
	sess.conn.Send(&wire.ServerStatus{Users: uint32(len(s.sessions)), Files: uint32(len(s.files))})
	ip, err := wire.EndpointFromAddrPort(s.Addr())
	if err == nil {
		sess.conn.Send(&wire.ServerIdent{Hash: s.hash, IP: ip.IP, Port: s.cfg.Port, Tags: s.identTags})
	}
}

func (s *Server) allocLowID() ed2k.ClientID {
	for {
		id := s.lowIDNext
		s.lowIDNext++
		if s.lowIDNext >= ed2k.LowIDThreshold {
			s.lowIDNext = 1
		}
		if _, taken := s.sessions[id]; !taken {
			return ed2k.ClientID(id)
		}
	}
}

func (s *Server) handleOffer(sess *session, msg *wire.OfferFiles) {
	if !sess.loggedIn {
		sess.conn.Send(&wire.Reject{})
		return
	}
	s.stats.Offers++
	for _, f := range msg.Files {
		if f.Hash.Zero() {
			continue
		}
		rec, ok := s.files[f.Hash]
		if !ok {
			rec = &fileRecord{meta: f}
			s.files[f.Hash] = rec
			s.indexKeywords(f)
			s.stats.FilesIndexed++
		}
		already := false
		for _, p := range rec.providers {
			if p.clientID == uint32(sess.clientID) {
				already = true
				break
			}
		}
		if !already {
			rec.providers = append(rec.providers, provider{clientID: uint32(sess.clientID), port: sess.port})
			sess.shared = append(sess.shared, f.Hash)
		}
	}
}

func (s *Server) handleGetSources(sess *session, msg *wire.GetSources) {
	if !sess.loggedIn {
		sess.conn.Send(&wire.Reject{})
		return
	}
	s.stats.GetSources++
	reply := &wire.FoundSources{Hash: msg.Hash}
	if rec, ok := s.files[msg.Hash]; ok {
		for _, p := range rec.providers {
			if len(reply.Sources) >= s.cfg.MaxSources || len(reply.Sources) >= 255 {
				break
			}
			if p.clientID == uint32(sess.clientID) {
				continue // don't hand a client itself
			}
			reply.Sources = append(reply.Sources, wire.Endpoint{IP: p.clientID, Port: p.port})
		}
	}
	sess.conn.Send(reply)
}

func (s *Server) handleSearch(sess *session, msg *wire.SearchRequest) {
	if !sess.loggedIn {
		sess.conn.Send(&wire.Reject{})
		return
	}
	s.stats.Searches++
	reply := &wire.SearchResult{}
	seen := make(map[ed2k.Hash]bool)
	for _, word := range tokenize(msg.Query) {
		for h := range s.keywords[word] {
			if seen[h] || len(reply.Files) >= maxSearchResults {
				continue
			}
			seen[h] = true
			if rec, ok := s.files[h]; ok {
				entry := rec.meta
				if len(rec.providers) > 0 {
					entry.ClientID = rec.providers[0].clientID
					entry.Port = rec.providers[0].port
				}
				reply.Files = append(reply.Files, entry)
			}
		}
	}
	sess.conn.Send(reply)
}

func (s *Server) indexKeywords(f wire.FileEntry) {
	for _, w := range tokenize(f.Name()) {
		set, ok := s.keywords[w]
		if !ok {
			set = make(map[ed2k.Hash]struct{})
			s.keywords[w] = set
		}
		set[f.Hash] = struct{}{}
	}
}

func (s *Server) unindexKeywords(f wire.FileEntry) {
	for _, w := range tokenize(f.Name()) {
		if set, ok := s.keywords[w]; ok {
			delete(set, f.Hash)
			if len(set) == 0 {
				delete(s.keywords, w)
			}
		}
	}
}

// tokenize lower-cases and splits a name or query into indexable words.
func tokenize(s string) []string {
	s = strings.ToLower(s)
	return strings.FieldsFunc(s, func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9')
	})
}
