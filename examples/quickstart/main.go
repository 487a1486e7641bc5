// Quickstart: a complete honeypot measurement on real TCP, in-process.
//
// It starts a directory server and one honeypot on 127.0.0.1, points the
// manager's control plane at the honeypot, then plays three scripted
// eDonkey peers against it: each logs into the server, asks GET-SOURCES
// for the bait file, connects to the honeypot, and runs the paper's
// Fig. 1 exchange (HELLO → START-UPLOAD → REQUEST-PART). Finally the
// manager collects and unifies the log and prints the anonymized records.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"repro/internal/client"
	"repro/internal/control"
	"repro/internal/ed2k"
	"repro/internal/faultfs"
	"repro/internal/honeypot"
	"repro/internal/livenet"
	"repro/internal/logging"
	"repro/internal/logstore"
	"repro/internal/manager"
	"repro/internal/server"
	"repro/internal/wire"
)

// Distinct loopback addresses: eDonkey identifies peers by IP (the high
// clientID IS the IPv4 address), so every actor needs its own.
var (
	serverIP   = netip.MustParseAddr("127.0.0.1")
	honeypotIP = netip.MustParseAddr("127.0.0.2")
	managerIP  = netip.MustParseAddr("127.0.0.3")
)

func peerIP(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{127, 0, 1, byte(10 + i)})
}

func main() {
	log.SetFlags(0)

	// --- Directory server ----------------------------------------------
	srvHost := livenet.NewHost(serverIP, 1)
	defer srvHost.Close()
	done := make(chan error, 1)
	srvHost.Post(func() {
		cfg := server.DefaultConfig("quickstart-server")
		cfg.Port = 14661
		done <- server.New(srvHost, cfg).Start()
	})
	must(<-done)
	serverAddr := netip.AddrPortFrom(serverIP, 14661)
	fmt.Printf("directory server on %s\n", serverAddr)

	// --- Honeypot + control agent --------------------------------------
	// The honeypot logs into a shard of an in-memory store (cmd/honeypotd
	// puts it on disk); the agent serves it to the manager by checkpoint.
	hpStore, err := logstore.Open("hp-00", logstore.Options{FS: faultfs.NewMem()})
	must(err)
	defer hpStore.Close()
	shard, err := hpStore.Shard("hp-00")
	must(err)
	hpHost := livenet.NewHost(honeypotIP, 2)
	defer hpHost.Close()
	hpHost.Post(func() {
		hp := honeypot.New(hpHost, honeypot.Config{
			ID:             "hp-00",
			Strategy:       honeypot.RandomContent,
			Port:           14662,
			Secret:         []byte("quickstart-secret"),
			BrowseContacts: true,
			Sink:           shard,
		})
		if err := hp.Client().Listen(); err != nil {
			done <- err
			return
		}
		_, err := control.NewAgent(hpHost, hp, shard, 14700)
		done <- err
	})
	must(<-done)
	fmt.Println("honeypot hp-00 (random-content) on 127.0.0.2:14662, control on :14700")

	// --- Manager: place the honeypot, advertise the bait ----------------
	bait := client.SharedFile{
		Hash: ed2k.SyntheticHash("quickstart-bait"),
		Name: "quickstart.movie.2008.avi",
		Size: 734003200,
		Type: "Video",
	}
	fmt.Printf("bait file: %s\n", ed2k.Link{Name: bait.Name, Size: bait.Size, Hash: bait.Hash})

	mgrHost := livenet.NewHost(managerIP, 3)
	defer mgrHost.Close()
	mgr := manager.New(mgrHost, manager.DefaultConfig())
	linkCh := make(chan *control.Link, 1)
	mgrHost.Post(func() {
		control.Dial(mgrHost, "hp-00", netip.AddrPortFrom(honeypotIP, 14700), func(l *control.Link, err error) {
			must(err)
			linkCh <- l
		})
	})
	link := <-linkCh
	mgrHost.Post(func() {
		must(mgr.Add(link, manager.Assignment{Server: serverAddr, Files: []client.SharedFile{bait}}))
	})
	// Wait until the honeypot reports a live server session.
	for i := 0; i < 50; i++ {
		time.Sleep(100 * time.Millisecond)
		stCh := make(chan honeypot.Status, 1)
		mgrHost.Post(func() {
			link.Status(func(st honeypot.Status, err error) {
				must(err)
				stCh <- st
			})
		})
		if st := <-stCh; st.Connected && st.Advertised > 0 {
			fmt.Printf("honeypot placed: clientID=%d highID=%v advertising %d file(s)\n",
				st.ClientID, st.HighID, st.Advertised)
			break
		}
	}

	// --- Three scripted peers ------------------------------------------
	for i := 0; i < 3; i++ {
		runPeer(i, serverAddr, bait)
	}
	time.Sleep(500 * time.Millisecond)

	// --- Collect, unify, print -----------------------------------------
	streamCh := make(chan *manager.DatasetStream, 1)
	mgrHost.Post(func() {
		mgr.FinalizeStream(func(s *manager.DatasetStream, err error) {
			must(err)
			streamCh <- s
		})
	})
	stream := <-streamCh
	defer stream.Close()
	fmt.Printf("\ncollected %d records (anonymized):\n", stream.Len())
	must(logging.Each(stream, func(r *logging.Record) error {
		name := r.FileName
		if name == "" && len(r.Files) > 0 {
			name = fmt.Sprintf("[shared list: %d files]", len(r.Files))
		}
		fmt.Printf("  %s  %-12s peer=%s port=%-5d highID=%-5v client=%q %s\n",
			r.Time.Format("15:04:05.000"), r.Kind, r.PeerIP, r.PeerPort, r.HighID, r.PeerName, name)
		return nil
	}))
	fmt.Printf("from %d distinct peers\n", stream.DistinctPeers())
}

// peer is one scripted eDonkey peer: its server session asks for the
// bait's sources, its session with the first one runs Fig. 1's exchange.
type peer struct {
	client.NopServerHandler
	client.NopPeerHandler
	i        int
	cl       *client.Client
	ps       client.PeerSession // the session with the honeypot
	bait     client.SharedFile
	finished chan struct{}
}

func (p *peer) HandleConnected(id ed2k.ClientID) {
	fmt.Printf("peer-%d logged in as %v, asking for sources\n", p.i, id)
	p.cl.GetSources(p.bait.Hash)
}

func (p *peer) HandleSources(_ ed2k.Hash, sources []wire.Endpoint) {
	if len(sources) == 0 {
		fmt.Printf("peer-%d: no sources!\n", p.i)
		close(p.finished)
		return
	}
	target := sources[0].AddrPort()
	fmt.Printf("peer-%d found %d source(s), contacting %s\n", p.i, len(sources), target)
	p.cl.DialPeerSession(&p.ps, target, p)
}

func (p *peer) HandlePeerDial(ps *client.PeerSession, err error) {
	if err != nil {
		log.Fatalf("peer %d dial honeypot: %v", p.i, err)
	}
	ps.SetHandler(p)
	ps.SendHello()
	ps.StartUpload(p.bait.Hash)
}

func (p *peer) HandleAcceptUpload() { p.ps.RequestParts(p.bait.Hash, [2]uint32{0, 184320}) }

func (p *peer) HandleSendingPart(part *wire.SendingPart) {
	fmt.Printf("peer-%d got %d bytes of \"content\" (junk!)\n", p.i, len(part.Data))
	p.ps.Close()
	close(p.finished)
}

// runPeer performs one full peer contact and blocks until it finishes.
func runPeer(i int, serverAddr netip.AddrPort, bait client.SharedFile) {
	host := livenet.NewHost(peerIP(i), int64(100+i))
	defer host.Close()
	p := &peer{i: i, bait: bait, finished: make(chan struct{})}
	host.Post(func() {
		p.cl = client.New(host, client.Config{
			Label:    fmt.Sprintf("peer-%d", i),
			UserHash: ed2k.NewUserHash(fmt.Sprintf("quickstart-peer-%d", i)),
			Name:     "aMule 2.2.2",
			Port:     uint16(15000 + i),
		})
		if err := p.cl.Listen(); err != nil {
			log.Fatalf("peer %d listen: %v", i, err)
		}
		p.cl.ConnectServer(serverAddr, p)
	})

	select {
	case <-p.finished:
	case <-time.After(10 * time.Second):
		log.Fatalf("peer %d timed out", i)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
