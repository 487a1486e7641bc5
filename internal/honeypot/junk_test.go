package honeypot

import (
	"sync"
	"testing"

	"repro/internal/des"
	"repro/internal/ed2k"
	"repro/internal/netsim"
)

// junkHost is a netsim host named name in a fresh world of seed 31.
func junkHost(name string) *netsim.Host {
	return netsim.New(des.NewLoop(t0, 31), netsim.DefaultConfig()).NewHost(name)
}

func junkConfig(id string, maxPart int) Config {
	return Config{ID: id, Strategy: RandomContent, Secret: []byte("s"), Sink: &countSink{}, MaxPartBytes: maxPart}
}

// A random-content honeypot takes its content from the process's pool,
// yet leaves its host's stream where filling its own pool with
// rand.Read left it: the draws after New are the ones they were.
func TestJunkPoolKeepsHostStream(t *testing.T) {
	// 0 is the default, ed2k.BlockSize; the others end mid-Int63.
	for _, maxPart := range []int{0, 1000, 1001, 1003} {
		old := junkHost("hp-j")
		pool := make([]byte, 2*maxPart)
		if maxPart == 0 {
			pool = make([]byte, 2*ed2k.BlockSize)
		}
		old.Rand().Read(pool)

		h := junkHost("hp-j")
		hp := New(h, junkConfig("hp-j", maxPart))
		if len(hp.junkPool) != len(pool) {
			t.Fatalf("MaxPartBytes %d: pool of %d bytes, want %d", maxPart, len(hp.junkPool), len(pool))
		}
		for i := range 1000 {
			if got, want := h.Rand().Int63(), old.Rand().Int63(); got != want {
				t.Fatalf("MaxPartBytes %d: draw %d after New is %d, want %d", maxPart, i, got, want)
			}
		}
	}
}

// Honeypots share one pool: a second honeypot's content is the first's
// backing array, and a larger pool leaves the smaller slice untouched.
func TestJunkPoolShared(t *testing.T) {
	a := New(junkHost("hp-a"), junkConfig("hp-a", 0))
	b := New(junkHost("hp-b"), junkConfig("hp-b", 0))
	if &a.junkPool[0] != &b.junkPool[0] || len(a.junkPool) != len(b.junkPool) {
		t.Fatal("two honeypots of one MaxPartBytes hold different pools")
	}
	before := append([]byte(nil), a.junkPool...)
	big := New(junkHost("hp-big"), junkConfig("hp-big", 4*ed2k.BlockSize))
	if len(big.junkPool) != 8*ed2k.BlockSize {
		t.Fatalf("pool of %d bytes, want %d", len(big.junkPool), 8*ed2k.BlockSize)
	}
	if string(a.junkPool) != string(before) || string(big.junkPool[:len(before)]) != string(before) {
		t.Error("growing the pool changed content already handed out")
	}
}

// Campaigns run concurrently in one process and share the pool:
// honeypots built on two goroutines at once, one growing the pool, must
// each get intact content (go test -race checks the sharing).
func TestJunkPoolConcurrentHoneypots(t *testing.T) {
	junk.Lock()
	junk.pool = nil // each run grows the pool from nothing
	junk.Unlock()
	sizes := []int{ed2k.BlockSize, 3 * ed2k.BlockSize}
	pools := make([][]byte, 2*len(sizes))
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, size := range sizes {
				hp := New(junkHost("hp-c"), junkConfig("hp-c", size))
				pools[g*len(sizes)+i] = hp.junkPool
			}
		}()
	}
	wg.Wait()
	ref := junkPool(6 * ed2k.BlockSize)
	for i, p := range pools {
		if string(p) != string(ref[:len(p)]) {
			t.Errorf("pool %d differs from the process's content", i)
		}
	}
}
