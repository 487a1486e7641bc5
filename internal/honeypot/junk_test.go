package honeypot

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/randsrc"
)

// junkHost is a netsim host named name in a fresh world of seed 31.
func junkHost(name string) *netsim.Host {
	return netsim.New(des.NewLoop(t0, 31), netsim.DefaultConfig()).NewHost(name)
}

func junkConfig(id string) Config {
	return Config{ID: id, Strategy: RandomContent, Secret: []byte("s"), Sink: &countSink{}}
}

// A random-content honeypot takes its content from the process's pool,
// yet leaves its host's stream where filling its own pool with
// rand.Read left it: the draws after New are the ones they were. The
// pool's 2×ed2k.BlockSize bytes end 6 bytes into an Int63, so the last
// draw rand.Read spent is one it used only part of.
func TestJunkPoolKeepsHostStream(t *testing.T) {
	old := junkHost("hp-j")
	pool := make([]byte, 2*maxPartBytes)
	old.Rand().Read(pool)

	h := junkHost("hp-j")
	hp := New(h, junkConfig("hp-j"))
	if len(hp.junkPool) != len(pool) {
		t.Fatalf("pool of %d bytes, want %d", len(hp.junkPool), len(pool))
	}
	for i := range 1000 {
		if got, want := h.Rand().Int63(), old.Rand().Int63(); got != want {
			t.Fatalf("draw %d after New is %d, want %d", i, got, want)
		}
	}
}

// Honeypots share one pool: a second honeypot's content is the first's
// backing array.
func TestJunkPoolShared(t *testing.T) {
	a := New(junkHost("hp-a"), junkConfig("hp-a"))
	b := New(junkHost("hp-b"), junkConfig("hp-b"))
	if &a.junkPool[0] != &b.junkPool[0] || len(a.junkPool) != len(b.junkPool) {
		t.Fatal("two honeypots hold different pools")
	}
}

// Campaigns run concurrently in one process and share the pool:
// honeypots built on two goroutines at once must each get the process's
// content (go test -race checks the sharing).
func TestJunkPoolConcurrentHoneypots(t *testing.T) {
	pools := make([][]byte, 4)
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2 {
				hp := New(junkHost("hp-c"), junkConfig("hp-c"))
				pools[2*g+i] = hp.junkPool
			}
		}()
	}
	wg.Wait()
	ref := make([]byte, 2*maxPartBytes)
	rand.New(randsrc.New(1)).Read(ref)
	for i, p := range pools {
		if string(p) != string(ref) {
			t.Errorf("pool %d differs from the process's content", i)
		}
	}
}
