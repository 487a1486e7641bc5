package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/ed2k"
)

func roundTrip(t *testing.T, space Space, m Message) Message {
	t.Helper()
	frame := AppendFrame(nil, m)
	r := NewReader(bytes.NewReader(frame), space)
	got, err := r.Read()
	if err != nil {
		t.Fatalf("round trip %T: %v", m, err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip %T:\n got %#v\nwant %#v", m, got, m)
	}
	return got
}

func sampleEntry(i int) FileEntry {
	return NewFileEntry(ed2k.SyntheticHash("f"), "file name.avi", 733421568, "Video")
}

func TestServerMessagesRoundTrip(t *testing.T) {
	msgs := []Message{
		&LoginRequest{
			UserHash: ed2k.NewUserHash("u1"),
			Port:     4662,
			Tags:     Tags{StringTag(TagName, "honeypot-00"), UintTag(TagVersion, 0x3C)},
		},
		&IDChange{ClientID: 0x11223344, Flags: 1},
		&ServerMessage{Text: "server version 17.15 (lugdunum)"},
		&ServerStatus{Users: 812345, Files: 98111222},
		&ServerIdent{
			Hash: ed2k.SyntheticHash("srv"), IP: 0x01020304, Port: 4661,
			Tags: Tags{StringTag(TagName, "Big Server"), StringTag(TagDescription, "test")},
		},
		&OfferFiles{Files: []FileEntry{sampleEntry(0), sampleEntry(1)}},
		&OfferFiles{}, // keep-alive form
		&GetSources{Hash: ed2k.SyntheticHash("g")},
		&FoundSources{
			Hash:    ed2k.SyntheticHash("g"),
			Sources: []Endpoint{{IP: 0x0A0B0C0D, Port: 4662}, {IP: 0x01000001, Port: 7777}},
		},
		&SearchRequest{Query: "linux distribution"},
		&SearchResult{Files: []FileEntry{sampleEntry(0)}},
		&GetServerList{},
		&ServerList{Servers: []Endpoint{{IP: 5, Port: 4661}}},
		&Reject{},
	}
	for _, m := range msgs {
		roundTrip(t, ServerSpace, m)
	}
}

func TestPeerMessagesRoundTrip(t *testing.T) {
	msgs := []Message{
		&Hello{
			UserHash: ed2k.NewUserHash("peer"), ClientID: 0x44332211, Port: 4662,
			Tags:     Tags{StringTag(TagName, "aMule 2.2.2"), UintTag(TagVersion, 0x3C)},
			ServerIP: 0x01020304, ServerPort: 4661,
		},
		&HelloAnswer{
			UserHash: ed2k.NewUserHash("hp"), ClientID: 77, Port: 4662,
			ServerIP: 0x01020304, ServerPort: 4661,
		},
		&RequestFileName{Hash: ed2k.SyntheticHash("x")},
		&FileReqAnswer{Hash: ed2k.SyntheticHash("x"), Name: "movie.avi"},
		&FileReqAnsNoFile{Hash: ed2k.SyntheticHash("x")},
		&SetReqFileID{Hash: ed2k.SyntheticHash("x")},
		&FileStatus{Hash: ed2k.SyntheticHash("x"), Parts: 12, Bitmap: []byte{0xFF, 0x0F}},
		&StartUploadReq{Hash: ed2k.SyntheticHash("x")},
		&AcceptUploadReq{},
		&QueueRank{Rank: 42},
		&RequestParts{
			Hash:  ed2k.SyntheticHash("x"),
			Start: [3]uint32{0, 184320, 368640},
			End:   [3]uint32{184320, 368640, 552960},
		},
		&SendingPart{Hash: ed2k.SyntheticHash("x"), Start: 0, End: 5, Data: []byte("junk!")},
		&CancelTransfer{},
		&OutOfPartRequests{},
		&EndOfDownload{Hash: ed2k.SyntheticHash("x")},
		&AskSharedFiles{},
		&AskSharedFilesAnswer{Files: []FileEntry{sampleEntry(0)}},
		&AskSharedFilesAnswer{}, // browse disabled
		&HashSetRequest{Hash: ed2k.SyntheticHash("x")},
		&HashSetAnswer{Hash: ed2k.SyntheticHash("x"), Parts: []ed2k.Hash{ed2k.SyntheticHash("p0"), ed2k.SyntheticHash("p1")}},
	}
	for _, m := range msgs {
		roundTrip(t, PeerSpace, m)
	}
}

func TestOpcodeCollisionBetweenSpaces(t *testing.T) {
	// 0x01 is LOGIN-REQUEST on server links and HELLO on peer links.
	login := &LoginRequest{UserHash: ed2k.NewUserHash("u"), Port: 4662}
	hello := &Hello{UserHash: ed2k.NewUserHash("u"), Port: 4662}
	if login.Op() != hello.Op() {
		t.Fatal("test premise broken: opcodes should collide")
	}
	frame := AppendFrame(nil, hello)
	if _, err := NewReader(bytes.NewReader(frame), PeerSpace).Read(); err != nil {
		t.Errorf("HELLO in peer space: %v", err)
	}
	// The same HELLO frame decodes as a LoginRequest in server space only if
	// field layouts happen to align; it must at least not panic and must
	// produce either an error or a LoginRequest.
	m, err := NewReader(bytes.NewReader(frame), ServerSpace).Read()
	if err == nil {
		if _, ok := m.(*LoginRequest); !ok {
			t.Errorf("server space decoded %T", m)
		}
	}
}

func TestFrameHeaderLayout(t *testing.T) {
	m := &GetSources{Hash: ed2k.SyntheticHash("h")}
	frame := AppendFrame(nil, m)
	if frame[0] != ProtoEDonkey {
		t.Errorf("protocol byte = 0x%02X", frame[0])
	}
	size := binary.LittleEndian.Uint32(frame[1:5])
	if int(size) != len(frame)-5 {
		t.Errorf("declared size %d, frame remainder %d", size, len(frame)-5)
	}
	if Opcode(frame[5]) != OpGetSources {
		t.Errorf("opcode byte = 0x%02X", frame[5])
	}
	if size != 1+16 { // opcode + hash
		t.Errorf("GET-SOURCES size = %d, want 17", size)
	}
}

func TestPackedFrameRoundTrip(t *testing.T) {
	// Large compressible message.
	files := make([]FileEntry, 200)
	for i := range files {
		files[i] = NewFileEntry(ed2k.SyntheticHash("f"), "aaaaaaaaaaaaaaaaaaaaaaaa.avi", 1000, "Video")
	}
	m := &OfferFiles{Files: files}
	frame, err := MarshalFrame(m, true)
	if err != nil {
		t.Fatal(err)
	}
	if frame[0] != ProtoPacked {
		t.Fatalf("expected packed frame, got protocol 0x%02X", frame[0])
	}
	plain := AppendFrame(nil, m)
	if len(frame) >= len(plain) {
		t.Errorf("packed frame (%d) not smaller than plain (%d)", len(frame), len(plain))
	}
	got, err := NewReader(bytes.NewReader(frame), ServerSpace).Read()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Error("packed round trip mismatch")
	}
}

func TestMarshalFrameSkipsUselessCompression(t *testing.T) {
	m := &AcceptUploadReq{}
	frame, err := MarshalFrame(m, true)
	if err != nil {
		t.Fatal(err)
	}
	if frame[0] != ProtoEDonkey {
		t.Errorf("tiny message should stay plain, got 0x%02X", frame[0])
	}
}

func TestReaderRejectsBadFrames(t *testing.T) {
	cases := []struct {
		name  string
		frame []byte
	}{
		{"bad protocol", []byte{0x99, 2, 0, 0, 0, 0x01, 0x00}},
		{"zero size", []byte{ProtoEDonkey, 0, 0, 0, 0, 0x01}},
		{"oversize", append([]byte{ProtoEDonkey}, append(binary.LittleEndian.AppendUint32(nil, MaxFrameSize+2), 0x01)...)},
		{"unknown opcode", []byte{ProtoEDonkey, 1, 0, 0, 0, 0xEE}},
		{"truncated payload header", []byte{ProtoEDonkey, 30, 0, 0, 0, byte(OpGetSources), 1, 2, 3}},
	}
	for _, c := range cases {
		r := NewReader(bytes.NewReader(c.frame), ServerSpace)
		if _, err := r.Read(); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

func TestReaderReportsEOF(t *testing.T) {
	r := NewReader(bytes.NewReader(nil), ServerSpace)
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Errorf("want io.EOF, got %v", err)
	}
}

func TestUnmarshalRejectsTrailingBytes(t *testing.T) {
	payload := make([]byte, 17) // GetSources wants 16
	_, err := Unmarshal(ServerSpace, OpGetSources, payload)
	if !errors.Is(err, ErrTrailingBytes) {
		t.Errorf("want ErrTrailingBytes, got %v", err)
	}
}

func TestUnmarshalRejectsTruncation(t *testing.T) {
	payload := make([]byte, 15)
	_, err := Unmarshal(ServerSpace, OpGetSources, payload)
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("want ErrTruncated, got %v", err)
	}
}

func TestWriterReaderStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, false)
	msgs := []Message{
		&GetSources{Hash: ed2k.SyntheticHash("a")},
		&GetSources{Hash: ed2k.SyntheticHash("b")},
		&SearchRequest{Query: "x"},
	}
	for _, m := range msgs {
		if err := w.Write(m); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf, ServerSpace)
	for i, want := range msgs {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("msg %d mismatch", i)
		}
	}
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Errorf("want EOF after stream, got %v", err)
	}
}

func TestTagsLookup(t *testing.T) {
	ts := Tags{
		StringTag(TagName, "n"),
		UintTag(TagSize, 123),
		{NameStr: "custom", Str: "v", IsString: true},
	}
	if ts.Str(TagName) != "n" {
		t.Error("Str(TagName)")
	}
	if ts.Uint(TagSize) != 123 {
		t.Error("Uint(TagSize)")
	}
	if ts.Str(TagSize) != "" {
		t.Error("Str on uint tag should be empty")
	}
	if ts.Uint(TagName) != 0 {
		t.Error("Uint on string tag should be 0")
	}
	if _, ok := ts.Lookup(0x7F); ok {
		t.Error("Lookup of absent tag")
	}
}

func TestEndpointConversion(t *testing.T) {
	ap := netip.AddrPortFrom(netip.MustParseAddr("203.0.113.9"), 4662)
	ep, err := EndpointFromAddrPort(ap)
	if err != nil {
		t.Fatal(err)
	}
	if got := ep.AddrPort(); got != ap {
		t.Errorf("round trip: %v != %v", got, ap)
	}
	low := Endpoint{IP: 1234, Port: 1}
	if low.AddrPort().IsValid() {
		t.Error("low endpoint should not produce a valid AddrPort")
	}
}

func TestFileEntryAccessors(t *testing.T) {
	f := NewFileEntry(ed2k.SyntheticHash("m"), "movie.avi", 700_000_000, "Video")
	if f.Name() != "movie.avi" || f.Size() != 700_000_000 || f.Type() != "Video" {
		t.Errorf("accessors: %q %d %q", f.Name(), f.Size(), f.Type())
	}
}

func TestRequestPartsRanges(t *testing.T) {
	m := &RequestParts{Start: [3]uint32{0, 100, 0}, End: [3]uint32{50, 200, 0}}
	var r [][2]uint32
	for start, end := range m.Ranges() {
		r = append(r, [2]uint32{start, end})
	}
	if len(r) != 2 || r[0] != [2]uint32{0, 50} || r[1] != [2]uint32{100, 200} {
		t.Errorf("Ranges() = %v", r)
	}
	n := 0
	if allocs := testing.AllocsPerRun(100, func() {
		for start, end := range m.Ranges() {
			n += int(end - start)
		}
	}); allocs != 0 {
		t.Errorf("ranging over Ranges allocates %v times, want 0", allocs)
	}
}

func TestOpcodeNames(t *testing.T) {
	if OpStartUploadReq.Name(PeerSpace) != "START-UPLOAD" {
		t.Error("START-UPLOAD name")
	}
	if OpRequestParts.Name(PeerSpace) != "REQUEST-PART" {
		t.Error("REQUEST-PART name")
	}
	if OpHello.Name(PeerSpace) != "HELLO" {
		t.Error("HELLO name")
	}
	if Opcode(0x01).Name(ServerSpace) != "LOGIN-REQUEST" {
		t.Error("LOGIN-REQUEST name")
	}
	if Opcode(0xEF).Name(PeerSpace) != "OP-0xEF" {
		t.Error("fallback name")
	}
}

// Property: the decoder never panics on arbitrary payloads, for every
// registered opcode in both spaces.
func TestQuickDecoderRobustness(t *testing.T) {
	ops := func(table map[Opcode]decoderFunc) []Opcode {
		var out []Opcode
		for op := range table {
			out = append(out, op)
		}
		return out
	}
	serverOps := ops(serverDecoders)
	peerOps := ops(peerDecoders)
	f := func(payload []byte, pick uint8, peer bool) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("decoder panicked: %v", r)
			}
		}()
		if peer {
			op := peerOps[int(pick)%len(peerOps)]
			Unmarshal(PeerSpace, op, payload)
		} else {
			op := serverOps[int(pick)%len(serverOps)]
			Unmarshal(ServerSpace, op, payload)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: tag lists of random shape round-trip through OfferFiles.
func TestQuickTagRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(nTags uint8) bool {
		var tags Tags // nil when empty, matching the decoder's convention
		for i := 0; i < int(nTags%8); i++ {
			if rng.Intn(2) == 0 {
				tags = append(tags, UintTag(byte(rng.Intn(250)+1), rng.Uint32()))
			} else {
				tags = append(tags, StringTag(byte(rng.Intn(250)+1), "v"))
			}
		}
		m := &OfferFiles{Files: []FileEntry{{Hash: ed2k.SyntheticHash("q"), Tags: tags}}}
		frame := AppendFrame(nil, m)
		got, err := NewReader(bytes.NewReader(frame), ServerSpace).Read()
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeHello(b *testing.B) {
	m := &Hello{
		UserHash: ed2k.NewUserHash("peer"), ClientID: 0x44332211, Port: 4662,
		Tags: Tags{StringTag(TagName, "aMule 2.2.2"), UintTag(TagVersion, 0x3C)},
	}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendFrame(buf[:0], m)
	}
}

func BenchmarkDecodeHello(b *testing.B) {
	m := &Hello{
		UserHash: ed2k.NewUserHash("peer"), ClientID: 0x44332211, Port: 4662,
		Tags: Tags{StringTag(TagName, "aMule 2.2.2"), UintTag(TagVersion, 0x3C)},
	}
	frame := AppendFrame(nil, m)
	payload := frame[6:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(PeerSpace, OpHello, payload); err != nil {
			b.Fatal(err)
		}
	}
}
