package capture

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/stream"
)

// TestServeReplayMuxesCaptures serves two captures over a real PGSP
// listener and checks the muxed session a client sees: concatenated stream
// slots, every recorded round delivered exactly once (renumbered onto one
// monotone counter), and a clean goodbye at the end.
func TestServeReplayMuxesCaptures(t *testing.T) {
	a := buildCapture(t, []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond})
	// Second capture with two streams and two rounds.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMeta(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	writeRounds(t, w, 2, []time.Duration{0, 8 * time.Millisecond})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeReplay(ln, []*Capture{a, b}, ReplayOptions{Speedup: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Streams() != 3 {
		t.Fatalf("muxed %d streams, want 3", srv.Streams())
	}

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	client, err := stream.NewClient(conn)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(client.Streams()); got != 3 {
		t.Fatalf("handshake advertised %d streams, want 3", got)
	}

	rounds, packets := 0, 0
	slotSeen := make([]int, 3)
	for {
		pkts, err := client.NextRound()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rounds++
		nonNil := 0
		for slot, p := range pkts {
			if p == nil {
				continue
			}
			nonNil++
			packets++
			slotSeen[slot]++
		}
		if nonNil == 0 {
			t.Fatal("empty round delivered")
		}
	}
	// 3 rounds of capture A (1 stream) + 2 rounds of capture B (2 streams),
	// each emitted as its own global round.
	if rounds != 5 {
		t.Fatalf("client saw %d rounds, want 5", rounds)
	}
	if packets != 3+4 {
		t.Fatalf("client saw %d packets, want 7", packets)
	}
	if slotSeen[0] != 3 || slotSeen[1] != 2 || slotSeen[2] != 2 {
		t.Fatalf("per-slot packet counts %v, want [3 2 2]", slotSeen)
	}
}

// payloadCapture loads a capture of `streams` streams over `rounds` rounds,
// every packet with a payload, keeping the given stream slots.
func payloadCapture(t *testing.T, streams, rounds int, keep []int) *Capture {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMeta(streams, nil))
	if err != nil {
		t.Fatal(err)
	}
	writeRounds(t, w, streams, make([]time.Duration, rounds))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if c, err = c.FilterStreams(keep); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestServeReplayWritesStoredBodies: a replay writes the wire the capture
// stores. With one capture, every round frame's body is the stored body
// byte for byte; with two muxed captures, the second capture's rounds
// decode to its own packets at ids shifted past the first capture's slots.
func TestServeReplayWritesStoredBodies(t *testing.T) {
	serve := func(captures ...*Capture) net.Conn {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv, err := ServeReplay(ln, captures, ReplayOptions{Clock: &VirtualClock{}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	a := payloadCapture(t, 3, 4, []int{1, 2}) // every round's first gap is 1

	conn := serve(a)
	if _, err := io.ReadFull(conn, make([]byte, 9+5*3)); err != nil { // the handshake
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		var hdr [20]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			t.Fatal(err)
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[12:]))
		if _, err := io.ReadFull(conn, body); err != nil {
			t.Fatal(err)
		}
		if id := binary.BigEndian.Uint32(hdr[8:]); id == ^uint32(0) { // goodbye
			if i != len(a.Rounds) {
				t.Fatalf("goodbye after %d of %d rounds", i, len(a.Rounds))
			}
			break
		}
		if !bytes.Equal(body, a.Rounds[i].Body) {
			t.Fatalf("round %d: wire body\n%x\nstored body\n%x", i, body, a.Rounds[i].Body)
		}
	}

	b := payloadCapture(t, 4, 3, []int{1, 3})
	client, err := stream.NewClient(serve(a, b))
	if err != nil {
		t.Fatal(err)
	}
	var want codec.Round
	j := 0
	for {
		got, err := client.NextRoundSparse()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if got.IDs[0] < 3 { // a round of the first capture
			continue
		}
		if err := b.DecodeRound(j, &want); err != nil {
			t.Fatal(err)
		}
		j++
		if got.Len() != want.Len() {
			t.Fatalf("b's round %d: %d packets, want %d", j-1, got.Len(), want.Len())
		}
		for k, p := range got.Pkts {
			w := *want.Pkts[k]
			w.StreamID += 3
			if got.IDs[k] != want.IDs[k]+3 || !reflect.DeepEqual(*p, w) {
				t.Fatalf("b's round %d entry %d: got %+v at %d, want %+v at %d", j-1, k, *p, got.IDs[k], w, want.IDs[k]+3)
			}
		}
	}
	if j != len(b.Rounds) {
		t.Fatalf("client saw %d of b's %d rounds", j, len(b.Rounds))
	}
}

// heldClock stands still and holds every Sleep until release is closed, so
// a replay emits the rounds due at its start and then waits.
type heldClock struct {
	release chan struct{}
}

func (c *heldClock) Now() time.Time        { return time.Time{} }
func (c *heldClock) Sleep(d time.Duration) { <-c.release }

// TestServeReplayRoundNeedsNoNextFrame: round 0 is due at once, round 1 is
// held by the clock. The client must receive round 0 while round 1 has not
// been sent, not one frame period (or a whole idle gap) later.
func TestServeReplayRoundNeedsNoNextFrame(t *testing.T) {
	c := buildCapture(t, []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond})
	clk := &heldClock{release: make(chan struct{})}
	var once sync.Once
	release := func() { once.Do(func() { close(clk.release) }) }
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeReplay(ln, []*Capture{c}, ReplayOptions{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer release()
	client, err := stream.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	got := make(chan error, 1)
	go func() {
		pkts, err := client.NextRound()
		if err == nil && pkts[0] == nil {
			err = errors.New("round 0 arrived without its packet")
		}
		got <- err
	}()
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("round 0 was not delivered while round 1 was held")
	}
	release()
	rounds := 1
	for {
		if _, err := client.NextRound(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		rounds++
	}
	if rounds != 3 || !client.SawGoodbye() {
		t.Fatalf("%d rounds (goodbye %v), want 3 and a goodbye", rounds, client.SawGoodbye())
	}
}

// countingClock is a VirtualClock that counts its Now calls: one at replay
// start and one before each round.
type countingClock struct {
	VirtualClock
	n atomic.Int64
}

func (c *countingClock) Now() time.Time {
	c.n.Add(1)
	return c.VirtualClock.Now()
}

// TestReplayCloseWithStalledClient: a client that connects and stops
// reading wedges its session in a write. Close must still return: sessions
// still open after the grace period are force-closed.
func TestReplayCloseWithStalledClient(t *testing.T) {
	const streams, rounds = 8, 1000 // 8 MB of payload: more than the socket buffers hold
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMeta(streams, nil))
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1024)
	for r := 0; r < rounds; r++ {
		for s := 0; s < streams; s++ {
			p := &codec.Packet{StreamID: s, Seq: int64(r), Type: codec.PictureP, Size: len(payload), GOPSize: 25, Payload: payload}
			if err := w.WritePacket(time.Duration(r)*time.Millisecond, int64(r), p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	clk := &countingClock{}
	srv, err := ServeReplay(ln, []*Capture{c}, ReplayOptions{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Read the handshake so the session is running, then stop reading and
	// wait for the replay to stall (its round count stops moving).
	if _, err := io.ReadFull(conn, make([]byte, 9+5*streams)); err != nil {
		t.Fatal(err)
	}
	for last, deadline := int64(-1), time.Now().Add(5*time.Second); ; {
		time.Sleep(50 * time.Millisecond)
		n := clk.n.Load()
		if n > rounds {
			t.Fatal("the whole replay fit in the socket buffers: nothing stalled")
		}
		if n == last || time.Now().After(deadline) {
			break
		}
		last = n
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case <-closed:
	case <-time.After(closeGrace + 10*time.Second):
		t.Fatal("Close blocked on a client that stopped reading")
	}
}
