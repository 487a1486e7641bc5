package client_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/client"
	"repro/internal/scenario"
	"repro/internal/wire"
)

// TestSharedMessagesStayReadOnly pins the rule that makes sharing a
// message safe: nothing a receiver does writes to it. Every message a
// client builds to send more than once (HELLO, HELLO-ANSWER,
// FILE-STATUS, SET-REQ-FILE-ID, START-UPLOAD, ASK-SHARED-FILES-ANSWER)
// is encoded as it is built; after a small campaign of each paper
// scenario, through honeypots, the server and the simulated peers,
// each must still encode to the same bytes.
func TestSharedMessagesStayReadOnly(t *testing.T) {
	type snapshot struct {
		m     wire.Message
		frame []byte
	}
	var built []snapshot
	defer client.SetBuiltHook(func(m wire.Message) {
		built = append(built, snapshot{m, wire.AppendFrame(nil, m)})
	})()
	for _, name := range []string{"distributed", "greedy"} {
		spec, err := scenario.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		spec.Scale *= 0.005
		if _, err := scenario.Run(spec); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	kinds := map[string]int{}
	for _, s := range built {
		kind := fmt.Sprintf("%T", s.m)
		kinds[kind]++
		if got := wire.AppendFrame(nil, s.m); !bytes.Equal(got, s.frame) {
			t.Fatalf("a shared %s was written after it was built: %x, was %x", kind, got, s.frame)
		}
	}
	for _, m := range []wire.Message{&wire.Hello{}, &wire.HelloAnswer{}, &wire.FileStatus{},
		&wire.SetReqFileID{}, &wire.StartUploadReq{}, &wire.AskSharedFilesAnswer{}} {
		if kind := fmt.Sprintf("%T", m); kinds[kind] == 0 {
			t.Errorf("the campaigns built no shared %s", kind)
		}
	}
	t.Logf("shared messages built: %v", kinds)
}
