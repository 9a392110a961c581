package stream

import (
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"packetgame/internal/codec"
)

func mkFactory(m int, seed int64) func() []*codec.Stream {
	return func() []*codec.Stream {
		streams := make([]*codec.Stream, m)
		for i := range streams {
			streams[i] = codec.NewStream(
				codec.SceneConfig{BaseActivity: 0.5},
				codec.EncoderConfig{StreamID: i, Codec: codec.H265, GOPSize: 10},
				seed+int64(i))
		}
		return streams
	}
}

func startServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ln, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestServeValidation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := Serve(ln, ServerConfig{}); err == nil {
		t.Error("missing NewStreams must error")
	}
}

func TestHandshakeMetadata(t *testing.T) {
	srv := startServer(t, ServerConfig{NewStreams: mkFactory(3, 1), Rounds: 1})
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	infos := c.Streams()
	if len(infos) != 3 {
		t.Fatalf("streams = %d", len(infos))
	}
	for i, info := range infos {
		if info.Codec != codec.H265 || info.FPS != 25 || info.GOPSize != 10 {
			t.Errorf("stream %d info = %+v", i, info)
		}
	}
}

// packets drains a client round by round and returns its packets in
// arrival order, each with the index of the round that carried it.
func packets(t *testing.T, c *Client) (pkts []*codec.Packet, rounds []int) {
	t.Helper()
	for r := 0; ; r++ {
		rnd, err := c.NextRoundSparse()
		if err == io.EOF {
			return pkts, rounds
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range rnd.Pkts {
			pkts = append(pkts, p)
			rounds = append(rounds, r)
		}
	}
}

func TestPacketsArriveInRoundOrder(t *testing.T) {
	const m, rounds = 4, 20
	srv := startServer(t, ServerConfig{NewStreams: mkFactory(m, 2), Rounds: rounds})
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pkts, rs := packets(t, c)
	for k, p := range pkts {
		if p.Seq != int64(rs[k]) {
			t.Fatalf("packet %d of stream %d has seq %d in round %d", k, p.StreamID, p.Seq, rs[k])
		}
		if p.StreamID != k%m {
			t.Fatalf("packet %d: stream %d, want %d (ascending within a round)", k, p.StreamID, k%m)
		}
		if p.Size <= 0 {
			t.Fatalf("packet size %d", p.Size)
		}
	}
	if len(pkts) != m*rounds {
		t.Errorf("received %d packets, want %d", len(pkts), m*rounds)
	}
}

func TestNextRoundGroups(t *testing.T) {
	const m, rounds = 5, 12
	srv := startServer(t, ServerConfig{NewStreams: mkFactory(m, 3), Rounds: rounds})
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seen := 0
	for {
		round, err := c.NextRound()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(round) != m {
			t.Fatalf("round slice length %d", len(round))
		}
		for i, p := range round {
			if p == nil {
				t.Fatalf("round %d missing stream %d", seen, i)
			}
			if p.StreamID != i {
				t.Fatalf("slot %d holds stream %d", i, p.StreamID)
			}
			if p.Seq != int64(seen) {
				t.Fatalf("round %d stream %d has seq %d", seen, i, p.Seq)
			}
		}
		seen++
	}
	if seen != rounds {
		t.Errorf("rounds = %d, want %d", seen, rounds)
	}
}

func TestPayloadsDecodeAfterTransport(t *testing.T) {
	srv := startServer(t, ServerConfig{NewStreams: mkFactory(2, 4), Rounds: 5})
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pkts, _ := packets(t, c)
	for _, p := range pkts {
		if _, err := codec.DecodePayload(p.Payload); err != nil {
			t.Fatalf("payload corrupted in transit: %v", err)
		}
	}
}

func TestMultipleClientsGetIndependentFleets(t *testing.T) {
	srv := startServer(t, ServerConfig{NewStreams: mkFactory(2, 5), Rounds: 3})
	read := func() []int {
		c, err := Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		pkts, _ := packets(t, c)
		var sizes []int
		for _, p := range pkts {
			sizes = append(sizes, p.Size)
		}
		return sizes
	}
	a, b := read(), read()
	if len(a) != len(b) || len(a) != 6 {
		t.Fatalf("lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("clients saw different fleets at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRealtimePacing(t *testing.T) {
	srv := startServer(t, ServerConfig{
		NewStreams: mkFactory(1, 6), Rounds: 5, Realtime: true, FPS: 100,
	})
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	pkts, _ := packets(t, c)
	elapsed := time.Since(start)
	// 5 rounds at 100 FPS ≈ 40ms minimum (first round is unpaced).
	if len(pkts) != 5 {
		t.Fatalf("packets = %d", len(pkts))
	}
	if elapsed < 25*time.Millisecond {
		t.Errorf("realtime pacing too fast: %v", elapsed)
	}
}

func TestDialRejectsNonPGSP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conn.Write([]byte("HTTP/1.1 200 OK\r\n\r\n"))
		conn.Close()
	}()
	if _, err := Dial(ln.Addr().String()); err == nil {
		t.Error("bad handshake must error")
	}
}

// TestHandshakeCountIsNotTrusted: the stream count in a handshake is a
// claim. A peer that names 1<<20 streams and hangs up before the first entry
// costs the client what arrived, not a 24 MiB table up front.
func TestHandshakeCountIsNotTrusted(t *testing.T) {
	client, server := net.Pipe()
	go func() {
		server.Write([]byte{'P', 'G', 'S', 'P', protocolVersion, 0x00, 0x10, 0x00, 0x00})
		server.Close()
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := NewClient(client)
	runtime.ReadMemStats(&after)
	if c != nil || !errors.Is(err, io.EOF) {
		t.Fatalf("handshake cut after its count: %v, want an EOF error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("client allocated %d bytes for a 9-byte handshake", grew)
	}
}

// TestRecordHookFirstSessionOnly checks the server-side capture tap: the
// Record callback sees every packet of the first accepted session, in
// (round, stream) order, and later sessions are not recorded.
func TestRecordHookFirstSessionOnly(t *testing.T) {
	type rec struct {
		round  int64
		stream int
		seq    int64
	}
	var mu sync.Mutex
	var got []rec
	srv := startServer(t, ServerConfig{
		Rounds:     3,
		NewStreams: mkFactory(2, 7),
		Record: func(round int64, streamID int, p *codec.Packet) {
			mu.Lock()
			got = append(got, rec{round, streamID, p.Seq})
			mu.Unlock()
		},
	})
	drain := func() int {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		c, err := NewClient(conn)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			pkts, err := c.NextRound()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pkts {
				if p != nil {
					n++
				}
			}
		}
		return n
	}
	first := drain()
	second := drain()
	if first != 6 || second != 6 {
		t.Fatalf("sessions delivered %d/%d packets, want 6/6", first, second)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 6 {
		t.Fatalf("record hook saw %d packets, want 6 (first session only)", len(got))
	}
	for i, r := range got {
		if want := int64(i / 2); r.round != want {
			t.Fatalf("record %d: round %d, want %d", i, r.round, want)
		}
		if want := i % 2; r.stream != want {
			t.Fatalf("record %d: stream %d, want %d", i, r.stream, want)
		}
	}
}
