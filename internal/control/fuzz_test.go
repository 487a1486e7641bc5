package control

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/ed2k"
	"repro/internal/faultfs"
	"repro/internal/honeypot"
	"repro/internal/logging"
	"repro/internal/logstore"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// FuzzEnvelope feeds arbitrary bytes to the agent as a control frame.
// Nothing may panic: unmarshalEnvelope rejects the bytes or accepts an
// envelope whose encoding is a marshal/unmarshal fixed point, and
// Agent.handle answers every accepted envelope with a response to the
// same sequence number that marshals. The seeds are one valid envelope
// per request type, plus a record read from a checkpoint past the
// shard's end.
func FuzzEnvelope(f *testing.F) {
	payload := func(v any) json.RawMessage {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	bait := FileSpec{Hash: ed2k.SyntheticHash("bait").String(), Name: "bait.avi", Size: 700 << 20, Type: "Video"}
	for _, e := range []Envelope{
		{Seq: 1, Type: TypeStatus},
		{Seq: 2, Type: TypeAdvertise, Payload: payload(AdvertiseRequest{Files: []FileSpec{bait}})},
		{Seq: 3, Type: TypeConnect, Payload: payload(ConnectRequest{Server: "10.0.0.1:4661"})},
		{Seq: 4, Type: TypeTakeRecordsSince, Payload: payload(SinceRequest{Max: 2})},
		{Seq: 5, Type: TypeTakeRecordsSince, Payload: payload(SinceRequest{Since: logstore.Checkpoint{Seg: 9, Off: 1 << 20}})},
	} {
		f.Add([]byte(marshalEnvelope(e).(*wire.ServerMessage).Text))
	}

	// take-records-since reads a few records from a shard in memory.
	store, err := logstore.Open("fuzz", logstore.Options{FS: faultfs.NewMem()})
	if err != nil {
		f.Fatal(err)
	}
	defer store.Close()
	shard, err := store.Shard("hp-0")
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r := logging.Record{Time: t0.Add(time.Duration(i) * time.Second), Honeypot: "hp-0", PeerIP: logging.HashedPeer(uint64(i))}
		if err := shard.AppendRecord(r); err != nil {
			f.Fatal(err)
		}
	}

	text := func(e Envelope) string { return marshalEnvelope(e).(*wire.ServerMessage).Text }
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := unmarshalEnvelope(&wire.ServerMessage{Text: string(data)})
		if err != nil {
			return
		}
		once := text(env)
		again, err := unmarshalEnvelope(&wire.ServerMessage{Text: once})
		if err != nil {
			t.Fatalf("an accepted envelope re-encodes as %q, which is rejected: %v", once, err)
		}
		if twice := text(again); twice != once {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s", once, twice)
		}

		host := netsim.New(des.NewLoop(t0, 1), netsim.DefaultConfig()).NewHost("hp")
		hp := honeypot.New(host, honeypot.Config{ID: "hp-0", Strategy: honeypot.NoContent, Port: 4662, Secret: []byte("s"), Sink: shard})
		a := &Agent{hp: hp, src: shard}
		resp := a.handle(env)
		if resp.Type != TypeResponse || resp.Seq != env.Seq {
			t.Fatalf("request %d answered as %+v", env.Seq, resp)
		}
		text(resp) // marshalEnvelope panics on an answer it cannot encode
	})
}
