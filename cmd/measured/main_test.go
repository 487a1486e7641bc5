package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServerLimits: the daemon's server closes a connection that sends
// half a header once the header timeout has passed, and keeps an SSE
// stream open well beyond it: it has no read or write timeout. The
// header timeout is shortened here so that the test takes a second.
func TestServerLimits(t *testing.T) {
	const ticks, every = 8, 50 * time.Millisecond
	srv := newServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		for i := 0; i < ticks; i++ {
			fmt.Fprintf(w, "data: %d\n\n", i)
			w.(http.Flusher).Flush()
			time.Sleep(every)
		}
	}))
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout || srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("server limits: header %v idle %v read %v write %v", srv.ReadHeaderTimeout, srv.IdleTimeout, srv.ReadTimeout, srv.WriteTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /runs HTTP/1.1\r\nHost: measured\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if b, err := io.ReadAll(conn); err != nil || len(b) != 0 {
		t.Fatalf("half a header: read %q, %v; want the connection closed", b, err)
	}
	if waited := time.Since(start); waited < srv.ReadHeaderTimeout {
		t.Fatalf("half a header: closed after %v, before the header timeout", waited)
	}

	start = time.Now()
	resp, err := http.Get("http://" + ln.Addr().String() + "/runs/x/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := 0
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		if strings.HasPrefix(sc.Text(), "data: ") {
			events++
		}
	}
	if lasted := time.Since(start); events != ticks || lasted < 3*srv.ReadHeaderTimeout {
		t.Fatalf("SSE stream delivered %d of %d events over %v", events, ticks, lasted)
	}
}
