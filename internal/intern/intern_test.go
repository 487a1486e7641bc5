package intern

import "testing"

func TestTableDenseFirstSeenOrder(t *testing.T) {
	tab := NewTable[[2]byte]()
	a, b := [2]byte{1}, [2]byte{2}
	if tab.ID(a) != 0 || tab.ID(b) != 1 || tab.ID(a) != 0 {
		t.Error("IDs not dense in first-seen order")
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d", tab.Len())
	}
	if tab.Value(1) != b {
		t.Errorf("Value(1) = %v", tab.Value(1))
	}
	if _, ok := tab.Lookup([2]byte{3}); ok {
		t.Error("Lookup invented an ID")
	}
	if id, ok := tab.Lookup(b); !ok || id != 1 {
		t.Errorf("Lookup(b) = %d, %v", id, ok)
	}
}

func TestPoolReusesAllocations(t *testing.T) {
	p := NewPool()
	a := p.Get([]byte("server-a"))
	b := p.Get([]byte("server-a"))
	if a != b || a != "server-a" {
		t.Errorf("Get: %q vs %q", a, b)
	}
	if p.Get(nil) != "" || p.Get([]byte{}) != "" {
		t.Error("empty input must return \"\"")
	}
	if p.Len() != 1 {
		t.Errorf("Len = %d", p.Len())
	}
	buf := []byte("server-a")
	allocs := testing.AllocsPerRun(100, func() { p.Get(buf) })
	if allocs != 0 {
		t.Errorf("Get allocated %.1f per known-value call", allocs)
	}
}
