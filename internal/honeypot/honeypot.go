// Package honeypot implements the paper's core contribution: an eDonkey
// client modified to advertise fake files and log every query it receives.
//
// As in the paper (§III-B):
//
//   - the honeypot joins a directory server and publishes OFFER-FILES for
//     files it does not have;
//   - it accepts inbound peer connections, answers the HELLO handshake and
//     grants upload slots, and records HELLO, START-UPLOAD and
//     REQUEST-PART messages with peer metadata (address — hashed before
//     anything is stored —, port, name, userID, version, ID status) plus
//     server identity and timestamps;
//   - on REQUEST-PART it follows one of two strategies: NoContent
//     (never answer) or RandomContent (send random bytes);
//   - it retrieves the shared-file list of every contacting peer that
//     allows browsing, and in greedy mode re-advertises the harvested
//     files during an initial adoption window.
package honeypot

import (
	"math/rand"
	"net/netip"
	"sync"
	"time"

	"repro/internal/anonymize"
	"repro/internal/client"
	"repro/internal/ed2k"
	"repro/internal/logging"
	"repro/internal/randsrc"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Strategy selects how REQUEST-PART queries are answered.
type Strategy int

const (
	// NoContent ignores part requests entirely.
	NoContent Strategy = iota
	// RandomContent answers part requests with random bytes.
	RandomContent
)

// String names the strategy as the paper does.
func (s Strategy) String() string {
	switch s {
	case NoContent:
		return "no-content"
	case RandomContent:
		return "random-content"
	default:
		return "unknown"
	}
}

// Config describes one honeypot.
type Config struct {
	// ID is the honeypot's identifier in logs ("hp-03").
	ID string
	// Strategy is the part-request policy.
	Strategy Strategy
	// Port is the peer listening port.
	Port uint16
	// Secret is the campaign-wide anonymization key (step 1). Mandatory:
	// the honeypot refuses to log raw addresses.
	Secret []byte
	// BrowseContacts asks every contacting peer for its shared list.
	BrowseContacts bool
	// Greedy enables shared-list harvesting into the advertised list.
	Greedy bool
	// GreedyWindow bounds the adoption phase (the paper used one day).
	GreedyWindow time.Duration
	// GreedyMaxFiles caps adopted files (0 = unlimited).
	GreedyMaxFiles int
	// KeepAlive is the server keep-alive interval.
	KeepAlive time.Duration
	// MaxPartBytes caps bytes served per SENDING-PART reply.
	MaxPartBytes int
	// Sink receives every record as it is produced. Mandatory: in every
	// deployment it is a logstore shard, which the manager collects from
	// by checkpoint (or owns outright, for an in-process honeypot whose
	// shard lives in the manager's own store).
	Sink logging.Sink
}

// Stats counts honeypot activity.
type Stats struct {
	Connections  int
	Hello        int
	StartUpload  int
	RequestParts int
	SharedLists  int
	PartsSent    int
	BytesSent    int64
	Adopted      int
}

// Status is the health report the manager polls (paper §III-A: honeypots
// report connected-or-not and their clientID).
type Status struct {
	ID         string
	Connected  bool
	ClientID   uint32
	HighID     bool
	Server     string
	Records    int
	Advertised int
	Stats      Stats
}

// Honeypot is the measurement actor.
type Honeypot struct {
	cfg    Config
	cl     *client.Client
	hasher *anonymize.IPHasher

	serverStr  string // the server's address, rendered once per ConnectServer
	logged     int    // total records appended
	stats      Stats
	started    time.Time
	greedyOver bool
	// junkPool is pre-generated random content, the process's one pool
	// (junkPool); SENDING-PART replies slice it instead of generating
	// fresh bytes per block (the paper's honeypots stream random data;
	// what matters behaviourally is that peers receive non-verifiable
	// content, not that every byte is freshly random).
	junkPool []byte

	// OnRecord, when set, observes every record as it is appended.
	OnRecord func(r logging.Record)
}

// New creates a honeypot on the host. Call Start next.
func New(host transport.Host, cfg Config) *Honeypot {
	if len(cfg.Secret) == 0 {
		panic("honeypot: anonymization secret is mandatory")
	}
	if cfg.Sink == nil {
		panic("honeypot: a record sink is mandatory")
	}
	if cfg.MaxPartBytes <= 0 {
		cfg.MaxPartBytes = ed2k.BlockSize
	}
	if cfg.KeepAlive <= 0 {
		cfg.KeepAlive = 30 * time.Minute
	}
	hp := &Honeypot{
		cfg:       cfg,
		hasher:    anonymize.NewIPHasher(cfg.Secret),
		serverStr: netip.AddrPort{}.String(),
	}
	hp.cl = client.New(host, client.Config{
		Label:      cfg.ID,
		UserHash:   ed2k.NewUserHash("honeypot/" + cfg.ID),
		Port:       cfg.Port,
		Browseable: false, // honeypots do not expose their own fake list to browsing
		KeepAlive:  cfg.KeepAlive,
	})
	hp.cl.Acceptor = (*acceptor)(hp)
	if cfg.Strategy == RandomContent {
		hp.junkPool = junkPool(2 * cfg.MaxPartBytes)
		// The host's stream once filled the pool: advance it by the
		// ⌈n/7⌉ Int63 draws that rand.Read spent on n bytes, so every
		// later draw on it is the one it was.
		rng := host.Rand()
		for range (len(hp.junkPool) + 6) / 7 {
			rng.Int63()
		}
	}
	return hp
}

// junk is the process's random content, which every random-content
// honeypot's SENDING-PART replies slice. It is generated from a fixed
// seed and regenerated into a larger array when a honeypot asks for
// more, so a slice once handed out is never written again.
var junk struct {
	sync.Mutex
	pool []byte
}

// junkPool returns n bytes of the process's random content.
func junkPool(n int) []byte {
	junk.Lock()
	defer junk.Unlock()
	if len(junk.pool) < n {
		junk.pool = make([]byte, n)
		rand.New(randsrc.New(1)).Read(junk.pool)
	}
	return junk.pool[:n:n]
}

// Client exposes the underlying engine (examples and tests use it).
func (hp *Honeypot) Client() *client.Client { return hp.cl }

// Config returns the configuration.
func (hp *Honeypot) Config() Config { return hp.cfg }

// Start listens for peers and connects to the directory server.
func (hp *Honeypot) Start(server netip.AddrPort) error {
	if err := hp.cl.Listen(); err != nil {
		return err
	}
	hp.started = hp.cl.Host().Now()
	hp.ConnectServer(server)
	return nil
}

// ConnectServer (re)connects to a directory server, dropping a live
// session first; the manager calls it to place, redirect and re-push a
// honeypot. The first placement anchors the greedy adoption window.
func (hp *Honeypot) ConnectServer(server netip.AddrPort) {
	if hp.started.IsZero() {
		hp.started = hp.cl.Host().Now()
	}
	hp.serverStr = server.String()
	hp.cl.ConnectServer(server, nil)
}

// Advertise publishes fake files (the manager decides which, per the
// campaign's advertisement strategy).
func (hp *Honeypot) Advertise(files ...client.SharedFile) {
	hp.cl.Share(files...)
}

// Advertised returns the currently advertised list.
func (hp *Honeypot) Advertised() []client.SharedFile { return hp.cl.Shared() }

// Status implements the manager's health poll. Records is the number of
// records this honeypot process has logged so far.
func (hp *Honeypot) Status() Status {
	return Status{
		ID:         hp.cfg.ID,
		Connected:  hp.cl.Connected(),
		ClientID:   uint32(hp.cl.ClientID()),
		HighID:     !hp.cl.ClientID().Low(),
		Server:     hp.serverStr,
		Records:    hp.logged,
		Advertised: len(hp.cl.Shared()),
		Stats:      hp.stats,
	}
}

// Stats returns the activity counters.
func (hp *Honeypot) Stats() Stats { return hp.stats }

// Close shuts the honeypot down.
func (hp *Honeypot) Close() { hp.cl.Close() }

func (hp *Honeypot) log(r logging.Record) {
	r.Time = hp.cl.Host().Now()
	r.Honeypot = hp.cfg.ID
	r.Server = hp.serverStr
	hp.cfg.Sink.Append(r)
	hp.logged++
	if hp.OnRecord != nil {
		hp.OnRecord(r)
	}
}

// base fills the per-peer fields shared by all record kinds; peer is
// the session's step-1 hashed address.
func (hp *Honeypot) base(ps *client.PeerSession, peer logging.PeerID) logging.Record {
	info := ps.Remote()
	return logging.Record{
		PeerIP:        peer,
		PeerPort:      ps.RemoteAddr().Port(),
		PeerName:      info.Name,
		UserHash:      logging.UserHash(info.UserHash),
		HighID:        !ed2k.ClientID(info.ClientID).Low(),
		ClientVersion: info.Version,
	}
}

// acceptor is the Honeypot as its client's PeerAcceptor: a conversion,
// so accepting costs only the session.
type acceptor Honeypot

// AcceptPeer implements client.PeerAcceptor.
func (a *acceptor) AcceptPeer(remote netip.AddrPort) *client.PeerSession {
	hp := (*Honeypot)(a)
	hp.stats.Connections++
	// Step 1 of the paper's anonymization: hash the peer address on accept,
	// before any record of the session exists. The raw address is not kept.
	s := &session{hp: hp, peer: hp.hasher.HashIP(remote.Addr())}
	s.ps.SetHandler(s)
	return &s.ps
}

// session is one inbound peer session and its handler: it holds the
// client session itself and the session's step-1 peer identity, and
// logs the paper's records.
type session struct {
	client.NopPeerHandler
	hp   *Honeypot
	ps   client.PeerSession
	peer logging.PeerID
}

func (s *session) HandleHello(client.PeerInfo) {
	hp := s.hp
	hp.stats.Hello++
	r := hp.base(&s.ps, s.peer)
	r.Kind = logging.KindHello
	hp.log(r)
	if hp.cfg.BrowseContacts {
		s.ps.AskSharedFiles()
	}
}

func (s *session) HandleStartUpload(file ed2k.Hash) {
	hp := s.hp
	hp.stats.StartUpload++
	r := hp.base(&s.ps, s.peer)
	r.Kind = logging.KindStartUpload
	r.FileHash = file
	if f, ok := hp.cl.SharedFile(file); ok {
		r.FileName = f.Name
	}
	hp.log(r)
	// Both strategies accept the slot: the paper observes the two
	// groups behave identically up to this point.
	s.ps.AcceptUpload()
}

func (s *session) HandleRequestParts(req *wire.RequestParts) {
	hp := s.hp
	hp.stats.RequestParts++
	r := hp.base(&s.ps, s.peer)
	r.Kind = logging.KindRequestPart
	r.FileHash = req.Hash
	if f, ok := hp.cl.SharedFile(req.Hash); ok {
		r.FileName = f.Name
	}
	hp.log(r)
	if hp.cfg.Strategy == RandomContent {
		hp.sendRandomParts(&s.ps, req)
	}
}

func (s *session) HandleSharedList(files []wire.FileEntry) {
	if len(files) == 0 {
		return // peer has browsing disabled
	}
	hp := s.hp
	hp.stats.SharedLists++
	r := hp.base(&s.ps, s.peer)
	r.Kind = logging.KindSharedList
	r.Files = make([]logging.SharedFile, 0, len(files))
	for _, f := range files {
		r.Files = append(r.Files, logging.SharedFile{Hash: f.Hash, Name: f.Name(), Size: f.Size()})
	}
	hp.log(r)
	hp.maybeAdopt(files)
}

// sendRandomParts answers each requested range with random bytes — the
// paper's random-content strategy. Content is sliced from the junk pool
// at a random offset: cheap, yet never hash-verifiable.
func (hp *Honeypot) sendRandomParts(ps *client.PeerSession, req *wire.RequestParts) {
	rng := hp.cl.Host().Rand()
	for start, end := range req.Ranges() {
		n := int(end - start)
		if n > hp.cfg.MaxPartBytes {
			n = hp.cfg.MaxPartBytes
		}
		off := rng.Intn(len(hp.junkPool) - n + 1)
		ps.SendPart(req.Hash, start, start+uint32(n), hp.junkPool[off:off+n])
		hp.stats.PartsSent++
		hp.stats.BytesSent += int64(n)
	}
}

// maybeAdopt implements the greedy measurement's harvesting: during the
// adoption window, files seen in peers' shared lists join the honeypot's
// own advertised list.
func (hp *Honeypot) maybeAdopt(files []wire.FileEntry) {
	if !hp.cfg.Greedy || hp.greedyOver {
		return
	}
	if hp.cfg.GreedyWindow > 0 && hp.cl.Host().Now().Sub(hp.started) > hp.cfg.GreedyWindow {
		hp.greedyOver = true
		return
	}
	for _, f := range files {
		if hp.cfg.GreedyMaxFiles > 0 && len(hp.cl.Shared()) >= hp.cfg.GreedyMaxFiles {
			hp.greedyOver = true
			return
		}
		if _, dup := hp.cl.SharedFile(f.Hash); dup {
			continue
		}
		hp.cl.Share(client.SharedFile{Hash: f.Hash, Name: f.Name(), Size: f.Size(), Type: f.Type()})
		hp.stats.Adopted++
	}
}
