package repl

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"precis/internal/faultinject"
	"precis/internal/storage"
	"precis/internal/wal"
)

func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

// --- protocol codec ---

func TestProtoRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	hello := Hello{Gen: 7, Records: 900, Epoch: 4}
	welcome := Welcome{Snapshot: true, Gen: 8, Records: 0, HeartbeatMS: 500, Epoch: 4}
	sb := SnapBegin{Gen: 8, Size: 4096}
	rec := RecordMsg{Gen: 8, Seq: 41, FrontierGen: 8, FrontierRecords: 100, FrontierBytes: 5000, Epoch: 4, Payload: []byte("payload-bytes")}
	hb := Heartbeat{FrontierGen: 8, FrontierRecords: 100, FrontierBytes: 5000, Epoch: 4}

	for _, m := range []struct {
		typ  MsgType
		body []byte
	}{
		{MsgHello, encodeHello(hello)},
		{MsgWelcome, encodeWelcome(welcome)},
		{MsgSnapBegin, encodeSnapBegin(sb)},
		{MsgSnapChunk, []byte("chunk")},
		{MsgSnapEnd, nil},
		{MsgRecord, encodeRecord(rec)},
		{MsgHeartbeat, encodeHeartbeat(hb)},
		{MsgError, []byte("boom")},
	} {
		if err := writeMsg(&buf, m.typ, m.body); err != nil {
			t.Fatalf("write %s: %v", m.typ, err)
		}
	}

	if typ, body, err := readMsg(&buf); err != nil || typ != MsgHello {
		t.Fatalf("read hello: %v (%s)", err, typ)
	} else if got, err := decodeHello(body); err != nil || got != hello {
		t.Fatalf("hello round trip: %+v, %v", got, err)
	}
	if typ, body, err := readMsg(&buf); err != nil || typ != MsgWelcome {
		t.Fatalf("read welcome: %v (%s)", err, typ)
	} else if got, err := decodeWelcome(body); err != nil || got != welcome {
		t.Fatalf("welcome round trip: %+v, %v", got, err)
	}
	if typ, body, err := readMsg(&buf); err != nil || typ != MsgSnapBegin {
		t.Fatalf("read snap-begin: %v (%s)", err, typ)
	} else if got, err := decodeSnapBegin(body); err != nil || got != sb {
		t.Fatalf("snap-begin round trip: %+v, %v", got, err)
	}
	if typ, body, err := readMsg(&buf); err != nil || typ != MsgSnapChunk || string(body) != "chunk" {
		t.Fatalf("snap-chunk round trip: %v %s %q", err, typ, body)
	}
	if typ, body, err := readMsg(&buf); err != nil || typ != MsgSnapEnd || len(body) != 0 {
		t.Fatalf("snap-end round trip: %v %s %q", err, typ, body)
	}
	if typ, body, err := readMsg(&buf); err != nil || typ != MsgRecord {
		t.Fatalf("read record: %v (%s)", err, typ)
	} else {
		got, err := decodeRecord(body)
		if err != nil {
			t.Fatalf("record decode: %v", err)
		}
		if got.Gen != rec.Gen || got.Seq != rec.Seq || got.FrontierGen != rec.FrontierGen ||
			got.FrontierRecords != rec.FrontierRecords || got.FrontierBytes != rec.FrontierBytes ||
			got.Epoch != rec.Epoch || !bytes.Equal(got.Payload, rec.Payload) {
			t.Fatalf("record round trip: %+v", got)
		}
	}
	if typ, body, err := readMsg(&buf); err != nil || typ != MsgHeartbeat {
		t.Fatalf("read heartbeat: %v (%s)", err, typ)
	} else if got, err := decodeHeartbeat(body); err != nil || got != hb {
		t.Fatalf("heartbeat round trip: %+v, %v", got, err)
	}
	if typ, body, err := readMsg(&buf); err != nil || typ != MsgError || string(body) != "boom" {
		t.Fatalf("error round trip: %v %s %q", err, typ, body)
	}
}

// TestProtoCorruptionAttributed flips every byte of a framed message; each
// flip must surface as a *ProtocolError (or a version/magic rejection at
// decode), never a silent success with different content.
func TestProtoCorruptionAttributed(t *testing.T) {
	var buf bytes.Buffer
	if err := writeMsg(&buf, MsgRecord, encodeRecord(RecordMsg{Gen: 3, Seq: 9, Payload: []byte("precis")})); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for off := 0; off < len(frame); off++ {
		for _, bit := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), frame...)
			mut[off] ^= bit
			typ, body, err := readMsg(bytes.NewReader(mut))
			if err == nil {
				// The CRCs authenticate every byte; a flip that still reads
				// must decode to the identical message — impossible, so any
				// success is a hole in the checksums.
				t.Fatalf("flip at %d (bit %02x) read back cleanly as %s %q", off, bit, typ, body)
			}
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Fatalf("flip at %d (bit %02x): error is not a ProtocolError: %v", off, bit, err)
			}
		}
	}
}

func TestReadMsgTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := writeMsg(&buf, MsgHeartbeat, encodeHeartbeat(Heartbeat{FrontierGen: 1})); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	if _, _, err := readMsg(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: want io.EOF, got %v", err)
	}
	for cut := 1; cut < len(frame); cut++ {
		_, _, err := readMsg(bytes.NewReader(frame[:cut]))
		var pe *ProtocolError
		if !errors.As(err, &pe) {
			t.Fatalf("cut at %d: want ProtocolError, got %v", cut, err)
		}
	}
}

// TestProtoWireBytes pins the exact encoding of every handshake and stream
// message, so a version-3 peer from an older build — one that still
// offered to negotiate down, but spoke these same bytes at version 3 —
// interoperates.
func TestProtoWireBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		body []byte
		hex  string
	}{
		{"hello", encodeHello(Hello{Gen: 7, Records: 900, Epoch: 4}), "5052435245504c330307840704"},
		{"welcome", encodeWelcome(Welcome{Snapshot: true, Gen: 8, HeartbeatMS: 500, Epoch: 4}), "03010800f40304"},
		{"record", encodeRecord(RecordMsg{Gen: 8, Seq: 41, FrontierGen: 8, FrontierRecords: 300, FrontierBytes: 5000, Epoch: 4, Payload: []byte("payload")}), "082908ac028827047061796c6f6164"},
		{"heartbeat", encodeHeartbeat(Heartbeat{FrontierGen: 8, FrontierRecords: 300, FrontierBytes: 5000, Epoch: 4}), "08ac02882704"},
		{"ack", encodeAck(Ack{Gen: 8, Records: 300, Bytes: 5000}), "08ac028827"},
	} {
		if got := hex.EncodeToString(tc.body); got != tc.hex {
			t.Errorf("%s encodes as %s, want %s", tc.name, got, tc.hex)
		}
	}
	// The frame header around a body is unchanged too.
	var buf bytes.Buffer
	if err := writeMsg(&buf, MsgHeartbeat, encodeHeartbeat(Heartbeat{FrontierGen: 8, FrontierRecords: 300, FrontierBytes: 5000, Epoch: 4})); err != nil {
		t.Fatal(err)
	}
	if got, want := hex.EncodeToString(buf.Bytes()), "070000000df367518ec098580708ac02882704"; got != want {
		t.Errorf("framed heartbeat is %s, want %s", got, want)
	}
}

// TestProtoEpochVersionGating: the fencing epoch is no longer gated on a
// negotiated version. Every Hello, Welcome, Record and Heartbeat carries
// it, even at epoch 0, and bytes framed the version-2 way (no epoch) never
// decode as the message they meant.
func TestProtoEpochVersionGating(t *testing.T) {
	hb := Heartbeat{FrontierGen: 4, FrontierRecords: 10, FrontierBytes: 512}
	if got, want := encodeHeartbeat(hb), append(append([]byte(nil), legacyHeartbeatV2...), 0); !bytes.Equal(got, want) {
		t.Fatalf("epoch-0 heartbeat is %x, want the v2 fields plus an explicit epoch %x", got, want)
	}
	if got, err := decodeHeartbeat(legacyHeartbeatV2); err == nil {
		t.Fatalf("v2 heartbeat without an epoch decoded: %+v", got)
	}

	rec := RecordMsg{Gen: 4, Seq: 9, FrontierGen: 4, FrontierRecords: 10, FrontierBytes: 512, Payload: []byte("record")}
	if got, err := decodeRecord(encodeRecord(rec)); err != nil || got.Epoch != 0 || !bytes.Equal(got.Payload, rec.Payload) {
		t.Fatalf("epoch-0 record round trip: %+v, %v", got, err)
	}
	// v2 record bytes: the first payload byte is consumed as the epoch, so
	// the payload must differ — never silently equal.
	if got, err := decodeRecord(legacyRecordV2); err == nil && got.Epoch == 0 && bytes.Equal(got.Payload, rec.Payload) {
		t.Fatalf("v2 record bytes decoded as the record they meant: %+v", got)
	}

	for _, h := range [][]byte{legacyHelloV1, legacyHelloV2, helloV3(2)} {
		if got, err := decodeHello(h); err == nil {
			t.Fatalf("hello %x decoded without an epoch check: %+v", h, got)
		}
	}
	if got, err := decodeWelcome(legacyWelcomeV2); err == nil {
		t.Fatalf("v2 welcome decoded: %+v", got)
	}
	if got, err := decodeHello(encodeHello(Hello{Gen: 1, Records: 2, Epoch: 9})); err != nil || got.Epoch != 9 {
		t.Fatalf("hello lost its epoch: %+v, %v", got, err)
	}
	if got, err := decodeWelcome(encodeWelcome(Welcome{Gen: 1, HeartbeatMS: 500, Epoch: 9})); err != nil || got.Epoch != 9 {
		t.Fatalf("welcome lost its epoch: %+v, %v", got, err)
	}
}

// Bodies of the retired protocol versions 1 and 2, byte for byte as those
// peers sent them. Version 1 and 2 frames carried no fencing epoch.
var (
	legacyHelloV1     = unhex("5052435245504c31010205") // PRCREPL1, v1, gen 2, records 5
	legacyHelloV2     = unhex("5052435245504c32020205") // PRCREPL2, v2, gen 2, records 5
	legacyWelcomeV2   = unhex("02000409f403")           // v2, resume at (4,9), heartbeat 500ms
	legacyRecordV2    = unhex("0409040a80047265636f7264")
	legacyHeartbeatV2 = unhex("040a8004")
)

func unhex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// helloV3 builds a PRCREPL3 Hello body announcing an arbitrary version.
func helloV3(version uint64) []byte {
	return appendUvarints([]byte(Magic), version, 2, 5, 9)
}

// TestHandshakeRefusesOtherVersions: PRCREPL3 is the only protocol. The
// primary answers any other magic or version with MsgError, before the
// epoch check and without registering a link; the client refuses a
// Welcome of any other version before it applies anything the primary
// sends after it.
func TestHandshakeRefusesOtherVersions(t *testing.T) {
	for _, tc := range []struct {
		name  string
		hello []byte
	}{
		{"PRCREPL1", legacyHelloV1},
		{"PRCREPL2", legacyHelloV2},
		{"PRCREPL3-v1", helloV3(1)},
		{"PRCREPL3-v2", helloV3(2)},
		{"PRCREPL3-v4", helloV3(4)},
	} {
		t.Run("primary/"+tc.name, func(t *testing.T) {
			p, addr := startPrimary(t, newTestStore(t))
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := writeMsg(conn, MsgHello, tc.hello); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			typ, body, err := readMsg(conn)
			if err != nil || typ != MsgError {
				t.Fatalf("primary answered %s %q (%v), want an error", typ, body, err)
			}
			// The refused Hello carried epoch 9 in the PRCREPL3 cases; it
			// must not have deposed the epoch-0 primary either.
			if st := p.Stats(); st.Handshakes != 0 || len(st.Links) != 0 || st.DeposedBy != 0 {
				t.Fatalf("refused hello left state behind: %+v", st)
			}
		})
	}

	var (
		snap = unhex("00")
		rec  = encodeRecord(RecordMsg{Gen: 4, Seq: 0, Epoch: 9, Payload: []byte("x")})
	)
	for _, tc := range []struct {
		name    string
		welcome []byte
	}{
		{"v2", legacyWelcomeV2},
		{"v4", appendUvarints(nil, 4, 1, 4, 0, 500, 9)},
	} {
		t.Run("client/"+tc.name, func(t *testing.T) {
			// A fake primary answers every Hello with the foreign Welcome,
			// then a complete snapshot and a record the client must never
			// apply.
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					go func() {
						defer conn.Close()
						if _, _, err := readMsg(conn); err != nil {
							return
						}
						_ = writeMsg(conn, MsgWelcome, tc.welcome)
						_ = writeMsg(conn, MsgSnapBegin, encodeSnapBegin(SnapBegin{Gen: 4, Size: uint64(len(snap))}))
						_ = writeMsg(conn, MsgSnapChunk, snap)
						_ = writeMsg(conn, MsgSnapEnd, nil)
						_ = writeMsg(conn, MsgRecord, rec)
						_, _, _ = readMsg(conn) // hold the link until the client drops it
					}()
				}
			}()
			var applied atomic.Int32
			cb := Callbacks{
				Position:     func() (uint64, uint64) { return 0, 0 },
				Snapshot:     func(uint64, []byte) error { applied.Add(1); return nil },
				Record:       func(uint64, uint64, []byte) error { applied.Add(1); return nil },
				Ack:          func() (uint64, uint64, uint64) { applied.Add(1); return 0, 0, 0 },
				ObserveEpoch: func(uint64) error { applied.Add(1); return nil },
			}
			client := New(Config{Addr: ln.Addr().String(), BackoffMin: time.Millisecond, BackoffMax: 5 * time.Millisecond, Logger: quietLogger()}, cb)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan struct{})
			go func() { defer close(done); client.Run(ctx) }()
			waitFor(t, "two refused handshakes", func() bool {
				st := client.Stats()
				return st.Dials >= 2 && strings.Contains(st.LastError, "protocol version")
			})
			cancel()
			<-done
			if n := applied.Load(); n != 0 {
				t.Fatalf("client ran %d callbacks past a refused welcome", n)
			}
			if st := client.Stats(); st.Snapshots != 0 || st.Records != 0 || st.AcksSent != 0 {
				t.Fatalf("client applied a foreign stream: %+v", st)
			}
		})
	}
}

// TestV2ClientNegotiatesDown: a follower can no longer pin an older
// protocol version. Against a fenced primary every session is PRCREPL3,
// and the epoch stamps of the Welcome, records and heartbeats all reach
// the follower engine while the stream converges.
func TestV2ClientNegotiatesDown(t *testing.T) {
	s := newTestStore(t)
	for i := 0; i < 5; i++ {
		if err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	p := NewPrimary(s, PrimaryConfig{HeartbeatEvery: 20 * time.Millisecond, Epoch: 5, Logger: quietLogger()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = p.Serve(ln) }()
	t.Cleanup(func() { _ = p.Close() })

	col := &collector{}
	cb := col.callbacks()
	var stamps, foreign atomic.Int32
	cb.ObserveEpoch = func(epoch uint64) error {
		if epoch != 5 {
			foreign.Add(1)
		}
		stamps.Add(1)
		return nil
	}
	client := New(Config{Addr: ln.Addr().String(), Logger: quietLogger()}, cb)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); client.Run(ctx) }()
	waitFor(t, "catch-up", atLeast(col, 5))
	// Welcome plus five records, then heartbeats.
	waitFor(t, "epoch stamps", func() bool { return stamps.Load() > 6 })
	cancel()
	<-done
	if n := foreign.Load(); n != 0 {
		t.Fatalf("%d stamps carried an epoch other than the primary's", n)
	}
	if st := p.Stats(); st.Followers != 1 || st.Handshakes == 0 {
		t.Fatalf("primary stats: %+v", st)
	}
}

// --- end-to-end transport over a real Store ---

// testRecord logs one synonym record; synonyms are the simplest op with a
// payload we can assert on.
func testRecord(i int) wal.Record {
	return wal.Record{Op: wal.OpSynonym, Alias: fmt.Sprintf("alias-%d", i), Canonical: fmt.Sprintf("canon-%d", i)}
}

func newTestStore(t *testing.T) *wal.Store {
	t.Helper()
	s, rec, err := wal.Open(t.TempDir(), wal.Config{Fsync: wal.FsyncNever, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Data != nil {
		t.Fatal("fresh dir recovered data")
	}
	if err := s.Initialize(&wal.SnapshotData{DB: storage.NewDatabase("repl-test")}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// collector accumulates the streamed state like a follower would.
type collector struct {
	mu        sync.Mutex
	snapGen   uint64
	snapshots int
	records   []wal.Record
	pos       position
}

func (c *collector) callbacks() Callbacks {
	return Callbacks{
		Position: func() (uint64, uint64) {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.pos.gen, c.pos.seq
		},
		Snapshot: func(gen uint64, raw []byte) error {
			if _, err := wal.DecodeSnapshot("<stream>", raw); err != nil {
				return err
			}
			c.mu.Lock()
			defer c.mu.Unlock()
			c.snapGen = gen
			c.snapshots++
			c.records = c.records[:0]
			c.pos = position{gen: gen}
			return nil
		},
		Record: func(gen, seq uint64, payload []byte) error {
			rec, err := wal.DecodeRecord(payload)
			if err != nil {
				return err
			}
			c.mu.Lock()
			defer c.mu.Unlock()
			c.records = append(c.records, rec)
			c.pos = position{gen: gen, seq: seq + 1}
			return nil
		},
	}
}

func (c *collector) snapshotCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshots
}

func (c *collector) recorded() []wal.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]wal.Record(nil), c.records...)
}

func startPrimary(t *testing.T, s *wal.Store) (*Primary, string) {
	t.Helper()
	p := NewPrimary(s, PrimaryConfig{HeartbeatEvery: 20 * time.Millisecond, Logger: quietLogger()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = p.Serve(ln) }()
	t.Cleanup(func() { _ = p.Close() })
	return p, ln.Addr().String()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStreamBootstrapLiveAndRotation(t *testing.T) {
	s := newTestStore(t)
	for i := 0; i < 5; i++ {
		if err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}

	p, addr := startPrimary(t, s)
	col := &collector{}
	client := New(Config{Addr: addr, Logger: quietLogger()}, col.callbacks())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clientDone := make(chan struct{})
	go func() { defer close(clientDone); client.Run(ctx) }()

	// Bootstrap: snapshot of gen 1, then the 5 preexisting records.
	waitFor(t, "bootstrap catch-up", atLeast(col, 5))
	if col.snapshotCount() != 1 {
		t.Fatalf("bootstrap took %d snapshots, want 1", col.snapshotCount())
	}

	// Live streaming.
	for i := 5; i < 8; i++ {
		if err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "live records", atLeast(col, 8))

	// A checkpoint rotation mid-stream: the caught-up follower crosses it
	// without a new snapshot.
	if err := s.Checkpoint(&wal.SnapshotData{DB: storage.NewDatabase("repl-test")}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 8; i < 11; i++ {
		if err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "post-rotation records", atLeast(col, 11))
	if col.snapshotCount() != 1 {
		t.Fatalf("rotation forced %d extra snapshot(s) on a caught-up follower", col.snapshotCount()-1)
	}
	got := col.recorded()
	for i, rec := range got {
		want := testRecord(i)
		if rec.Alias != want.Alias || rec.Canonical != want.Canonical {
			t.Fatalf("record %d: got %q->%q, want %q->%q", i, rec.Alias, rec.Canonical, want.Alias, want.Canonical)
		}
	}
	if st := client.Stats(); !st.Connected || st.Records == 0 || st.BytesReceived == 0 {
		t.Fatalf("client stats look dead: %+v", st)
	}
	if st := p.Stats(); st.Followers != 1 || st.SentRecords < 11 {
		t.Fatalf("primary stats: %+v", st)
	}

	cancel()
	<-clientDone
}

// atLeast is a waitFor condition: the collector holds >= n records.
func atLeast(col *collector, n int) func() bool {
	return func() bool { return len(col.recorded()) >= n }
}

// TestResumeFromPosition disconnects a follower, appends more records, and
// reconnects: the stream must resume exactly at the follower's position,
// with no snapshot and no duplicates.
func TestResumeFromPosition(t *testing.T) {
	s := newTestStore(t)
	for i := 0; i < 4; i++ {
		if err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	p, addr := startPrimary(t, s)
	_ = p

	col := &collector{}
	ctx1, cancel1 := context.WithCancel(context.Background())
	c1 := New(Config{Addr: addr, Logger: quietLogger()}, col.callbacks())
	done1 := make(chan struct{})
	go func() { defer close(done1); c1.Run(ctx1) }()
	waitFor(t, "first catch-up", atLeast(col, 4))
	cancel1()
	<-done1

	for i := 4; i < 9; i++ {
		if err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	c2 := New(Config{Addr: addr, Logger: quietLogger()}, col.callbacks())
	done2 := make(chan struct{})
	go func() { defer close(done2); c2.Run(ctx2) }()
	waitFor(t, "resume catch-up", atLeast(col, 9))
	if col.snapshotCount() != 1 {
		t.Fatalf("resume re-bootstrapped (%d snapshots)", col.snapshotCount())
	}
	for i, rec := range col.recorded() {
		if want := testRecord(i); rec.Alias != want.Alias {
			t.Fatalf("record %d after resume: %q", i, rec.Alias)
		}
	}
	cancel2()
	<-done2
}

// TestFallenBehindFollowerRebootstraps reconnects a follower whose
// generation was checkpointed away; it must get a fresh snapshot, not an
// error loop.
func TestFallenBehindFollowerRebootstraps(t *testing.T) {
	s := newTestStore(t)
	for i := 0; i < 3; i++ {
		if err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	p, addr := startPrimary(t, s)
	_ = p

	col := &collector{}
	ctx1, cancel1 := context.WithCancel(context.Background())
	c1 := New(Config{Addr: addr, Logger: quietLogger()}, col.callbacks())
	done1 := make(chan struct{})
	go func() { defer close(done1); c1.Run(ctx1) }()
	waitFor(t, "catch-up", atLeast(col, 3))
	cancel1()
	<-done1

	// Two rotations: the follower's generation file is gone.
	for r := 0; r < 2; r++ {
		if err := s.Checkpoint(&wal.SnapshotData{DB: storage.NewDatabase("repl-test")}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(testRecord(100)); err != nil {
		t.Fatal(err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	c2 := New(Config{Addr: addr, Logger: quietLogger()}, col.callbacks())
	done2 := make(chan struct{})
	go func() { defer close(done2); c2.Run(ctx2) }()
	waitFor(t, "re-bootstrap", func() bool {
		recs := col.recorded()
		return col.snapshotCount() == 2 && len(recs) == 1 && recs[0].Alias == "alias-100"
	})
	cancel2()
	<-done2
}

// TestLinkFaultsReconnectAndConverge severs the link via every repl.*
// fault site — including mid-frame wire corruption — and requires the
// follower to reconverge every time.
func TestLinkFaultsReconnectAndConverge(t *testing.T) {
	defer faultinject.Deactivate()
	errSever := errors.New("injected sever")
	cases := []struct {
		name string
		site string
		err  error
	}{
		{"send-sever", faultinject.SiteReplSend, errSever},
		{"send-corrupt", faultinject.SiteReplSend, ErrInjectCorrupt},
		{"recv-sever", faultinject.SiteReplRecv, errSever},
		{"handshake-sever", faultinject.SiteReplHandshake, errSever},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestStore(t)
			for i := 0; i < 6; i++ {
				if err := s.Append(testRecord(i)); err != nil {
					t.Fatal(err)
				}
			}
			_, addr := startPrimary(t, s)
			col := &collector{}
			client := New(Config{Addr: addr, BackoffMin: time.Millisecond, BackoffMax: 20 * time.Millisecond, Logger: quietLogger()}, col.callbacks())
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan struct{})

			// Fire on every 3rd site call, 10 times total, starting before
			// the first connect so even the bootstrap is interrupted.
			faultinject.Activate(faultinject.NewPlan().Set(tc.site, faultinject.Rule{Err: tc.err, Every: 3, Limit: 10}))
			go func() { defer close(done); client.Run(ctx) }()

			waitFor(t, "converge under "+tc.name, atLeast(col, 6))
			faultinject.Deactivate()
			for i := 6; i < 9; i++ {
				if err := s.Append(testRecord(i)); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, "post-fault records", atLeast(col, 9))
			for i, rec := range col.recorded() {
				if want := testRecord(i); rec.Alias != want.Alias {
					t.Fatalf("record %d diverged after %s: %q", i, tc.name, rec.Alias)
				}
			}
			cancel()
			<-done
		})
	}
}
