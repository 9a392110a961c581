package stream

import (
	"bufio"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/container"
)

func TestGoodbyeMarksCleanEOF(t *testing.T) {
	srv := startServer(t, ServerConfig{NewStreams: mkFactory(2, 7), Rounds: 3})
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rounds := 0
	for {
		if _, err := c.NextRound(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		rounds++
	}
	if rounds != 3 {
		t.Fatalf("rounds = %d", rounds)
	}
	if !c.SawGoodbye() {
		t.Fatal("clean session end must carry the goodbye marker")
	}
}

// rawSession accepts one connection and hands the test full control of the
// byte stream after the handshake.
func rawSession(t *testing.T, streams int, fn func(*bufio.Writer)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		bw := bufio.NewWriter(conn)
		if err := writeHandshake(bw, mkFactory(streams, 1)()); err != nil {
			return
		}
		fn(bw)
		bw.Flush()
	}()
	return ln.Addr().String()
}

func TestClientSkipsCorruptFrames(t *testing.T) {
	fleet := mkFactory(2, 9)()
	mkBody := func(i int) []byte {
		return container.MarshalPacket(nil, fleet[i].Next())
	}
	addr := rawSession(t, 2, func(bw *bufio.Writer) {
		// Round 0: stream 0 intact, stream 1's body corrupted on the wire.
		bw.Write(appendFrame(nil, 0, 0, mkBody(0)))
		bad := appendFrame(nil, 0, 1, mkBody(1))
		bad[len(bad)-1] ^= 0xFF
		bw.Write(bad)
		// Round 1: both intact. Then a clean goodbye.
		bw.Write(appendFrame(nil, 1, 0, mkBody(0)))
		bw.Write(appendFrame(nil, 1, 1, mkBody(1)))
		bw.Write(appendGoodbye(nil, 2))
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r0, err := c.NextRound()
	if err != nil {
		t.Fatal(err)
	}
	if r0[0] == nil || r0[1] != nil {
		t.Fatalf("round 0 = [%v %v], want stream 1's corrupt frame dropped", r0[0], r0[1])
	}
	r1, err := c.NextRound()
	if err != nil {
		t.Fatal(err)
	}
	if r1[0] == nil || r1[1] == nil {
		t.Fatal("round 1 must be complete")
	}
	if _, err := c.NextRound(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	if !c.SawGoodbye() || c.CorruptDropped() != 1 {
		t.Fatalf("goodbye=%v dropped=%d", c.SawGoodbye(), c.CorruptDropped())
	}

	// On the round frame servers send, a corrupt body costs its whole round:
	// round 0 is dropped and round 1 is the first delivered.
	rounds := fleetRounds(mkFactory(2, 9)(), 2)
	wire := handWritten(t, fleet, rounds, true, false)
	wire[19+frameHeaderLen] ^= 0xFF // round 0's body
	rc := pipeClient(t, wire, false)
	got := readAll(t, rc, false)
	if len(got) != 1 || !samePacket(got[0][0], rounds[1][0]) || !samePacket(got[0][1], rounds[1][1]) {
		t.Fatalf("after a corrupt round frame got %d rounds, want round 1 alone", len(got))
	}
	if !rc.SawGoodbye() || rc.CorruptDropped() != 1 {
		t.Fatalf("round frames: goodbye=%v dropped=%d", rc.SawGoodbye(), rc.CorruptDropped())
	}
}

func TestResetWithoutGoodbyeIsUnclean(t *testing.T) {
	fleet := mkFactory(1, 13)()
	addr := rawSession(t, 1, func(bw *bufio.Writer) {
		body := container.MarshalPacket(nil, fleet[0].Next())
		bw.Write(appendFrame(nil, 0, 0, body))
		// Cut mid-frame: a header promising more bytes than ever arrive.
		frame := appendFrame(nil, 1, 0, body)
		bw.Write(frame[:len(frame)-3])
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.NextRound(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.NextRound(); err != io.EOF {
		t.Fatalf("want EOF after cut, got %v", err)
	}
	if c.SawGoodbye() {
		t.Fatal("a mid-frame cut must not read as a clean end")
	}
}

// cutConn closes the session after a byte budget, simulating a reset.
type cutConn struct {
	net.Conn
	mu        sync.Mutex
	remaining int
}

func (c *cutConn) Read(b []byte) (int, error) {
	c.mu.Lock()
	rem := c.remaining
	c.mu.Unlock()
	if rem <= 0 {
		c.Conn.Close()
		return 0, io.ErrUnexpectedEOF
	}
	if len(b) > rem {
		b = b[:rem]
	}
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	c.remaining -= n
	c.mu.Unlock()
	return n, err
}

// TestResilientSurvivesReset cuts the first session mid-round and drives
// the reconnecting client through NextRound and through NextRoundSparse: the
// reconnect loop is the same for both, so they deliver the same rounds.
func TestResilientSurvivesReset(t *testing.T) {
	srv := startServer(t, ServerConfig{NewStreams: mkFactory(2, 17), Rounds: 4})
	run := func(sparse bool) [][]*codec.Packet {
		dials := 0
		r, err := NewResilient(ResilientConfig{
			Addr:        srv.Addr().String(),
			BaseBackoff: time.Millisecond,
			Seed:        42,
			WrapConn: func(conn net.Conn) net.Conn {
				dials++
				if dials == 1 {
					// First session dies partway through: enough for the
					// 19-byte handshake and round 0 (one 83-byte round
					// frame), then a reset mid-round-1.
					return &cutConn{Conn: conn, remaining: 150}
				}
				return conn
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		var rounds [][]*codec.Packet
		for {
			var pkts []*codec.Packet
			if sparse {
				var rnd *codec.Round
				if rnd, err = r.NextRoundSparse(); err == nil {
					pkts = denseView(new([]*codec.Packet), rnd)
				}
			} else {
				pkts, err = r.NextRound()
				pkts = append([]*codec.Packet(nil), pkts...)
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(pkts) != 2 {
				t.Fatalf("round width %d", len(pkts))
			}
			rounds = append(rounds, pkts)
		}
		if dials != 2 {
			t.Fatalf("dials = %d, want 2 (initial + one reconnect)", dials)
		}
		if r.Reconnects() != 1 {
			t.Fatalf("reconnects = %d, want 1", r.Reconnects())
		}
		// The healed session replays a fresh fleet from its own round 0, so
		// the client sees at least the second session's full run.
		if len(rounds) < 4 {
			t.Fatalf("rounds = %d, want ≥ 4", len(rounds))
		}
		return rounds
	}
	dense, sparse := run(false), run(true)
	if len(dense) != len(sparse) {
		t.Fatalf("NextRound delivered %d rounds, NextRoundSparse %d", len(dense), len(sparse))
	}
	for k := range dense {
		for i := range dense[k] {
			if !samePacket(dense[k][i], sparse[k][i]) {
				t.Fatalf("round %d stream %d: NextRound and NextRoundSparse differ", k, i)
			}
		}
	}
}

// scriptedServer serves one scripted behavior per accepted connection, in
// order, then stops accepting.
func scriptedServer(t *testing.T, sessions ...func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for _, fn := range sessions {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			fn(conn)
		}
	}()
	return ln.Addr().String()
}

// refuseSession drops the connection before the handshake.
func refuseSession(conn net.Conn) { conn.Close() }

// flapSession handshakes and then dies before delivering any round.
func flapSession(conn net.Conn) {
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	if writeHandshake(bw, mkFactory(1, 9)()) != nil {
		return
	}
	bw.Flush()
}

// servedSession handshakes and serves n full rounds; cleanly with a goodbye,
// or cut after an extra round-boundary frame so the last round still flushes.
func servedSession(n int, goodbye bool) func(net.Conn) {
	return func(conn net.Conn) {
		defer conn.Close()
		fleet := mkFactory(1, 9)()
		bw := bufio.NewWriter(conn)
		if writeHandshake(bw, fleet) != nil {
			return
		}
		for r := 0; r < n; r++ {
			bw.Write(appendFrame(nil, uint64(r), 0, container.MarshalPacket(nil, fleet[0].Next())))
		}
		if goodbye {
			bw.Write(appendGoodbye(nil, uint64(n)))
		} else {
			// A cut mid-frame: the boundary header flushes round n−1, the
			// truncated body means round n never completes.
			frame := appendFrame(nil, uint64(n), 0, container.MarshalPacket(nil, fleet[0].Next()))
			bw.Write(frame[:len(frame)-3])
		}
		bw.Flush()
	}
}

// TestReconnectBackoffEscalatesAcrossFlaps is the flapping-server
// regression: sessions that die before delivering a round must not be
// re-dialed at base rate forever — the persistent backoff escalates across
// them even though each individual dial succeeds instantly — and the first
// delivered round resets it to base.
func TestReconnectBackoffEscalatesAcrossFlaps(t *testing.T) {
	const base = 20 * time.Millisecond
	addr := scriptedServer(t,
		servedSession(1, false), // healthy, then cut
		flapSession, flapSession,
		servedSession(1, true),
	)
	r, err := NewResilient(ResilientConfig{Addr: addr, BaseBackoff: base, MaxBackoff: time.Second, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.NextRound(); err != nil {
		t.Fatal(err)
	}
	if r.backoff != base {
		t.Fatalf("backoff after a healthy round = %v, want base %v", r.backoff, base)
	}
	// Healing crosses two flaps: the dials succeed instantly, so only the
	// escalating pre-dial delays (≥ base, then ≥ 2·base, minus 25% jitter)
	// separate them. The pre-fix behavior slept 0.
	t0 := time.Now()
	if _, err := r.NextRound(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(t0); elapsed < 40*time.Millisecond {
		t.Fatalf("healed through two flaps in %v: the backoff never escalated", elapsed)
	}
	if r.backoff != base {
		t.Fatalf("backoff after the healing round = %v, want base %v", r.backoff, base)
	}
	if r.Reconnects() != 3 {
		t.Fatalf("reconnects = %d, want 3", r.Reconnects())
	}
}

// TestReconnectBackoffResetsAfterSession is the carried-delay regression:
// an outage that inflates the backoff across failed dials must not bleed
// that delay into the next outage once a session has delivered rounds —
// the reconnect after a healthy session dials immediately again.
func TestReconnectBackoffResetsAfterSession(t *testing.T) {
	const base = 200 * time.Millisecond
	addr := scriptedServer(t,
		servedSession(1, false),      // healthy, then cut
		refuseSession, refuseSession, // inflate the backoff mid-outage
		servedSession(1, false), // healthy again, then cut
		servedSession(1, true),  // final clean session
	)
	r, err := NewResilient(ResilientConfig{Addr: addr, BaseBackoff: base, MaxBackoff: time.Minute, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.NextRound(); err != nil { // session 1
		t.Fatal(err)
	}
	if _, err := r.NextRound(); err != nil { // heals through the refusals
		t.Fatal(err)
	}
	if r.backoff != base {
		t.Fatalf("backoff after the healed session's round = %v, want base %v", r.backoff, base)
	}
	// Session 4 cuts after its round; the next outage is a fresh incident
	// after a healthy session, so the re-dial happens without any carried
	// delay (the pre-fix bug slept the inflated value here).
	t0 := time.Now()
	if _, err := r.NextRound(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(t0); elapsed > 150*time.Millisecond {
		t.Fatalf("reconnect after a healthy session took %v: inflated backoff carried into the next outage", elapsed)
	}
}

func TestResilientGivesUpEventually(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here anymore
	_, err = NewResilient(ResilientConfig{Addr: addr, MaxAttempts: 2, BaseBackoff: time.Millisecond})
	if err == nil {
		t.Fatal("connecting to a dead address must eventually fail")
	}
}

// TestShutdownNoLeakOnMidFrameDisconnect races Server.Shutdown against
// clients that vanish mid-frame: each client consumes the handshake plus a
// few bytes of a frame header and then drops the connection with an RST
// while the server is still streaming. Shutdown must reap every serving
// goroutine — none may stay blocked writing into a dead peer.
func TestShutdownNoLeakOnMidFrameDisconnect(t *testing.T) {
	before := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ln, ServerConfig{
		NewStreams: mkFactory(4, 33), // unlimited rounds
		Realtime:   true, FPS: 200,   // paced, so disconnects land mid-session
	})
	if err != nil {
		t.Fatal(err)
	}
	var clients sync.WaitGroup
	for i := 0; i < 4; i++ {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		clients.Add(1)
		go func(conn net.Conn, n int) {
			defer clients.Done()
			// Read up to mid-header: the 4-byte magic, version, stream
			// table, and a ragged few bytes of the first frame.
			buf := make([]byte, 40+n)
			io.ReadFull(conn, buf)
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetLinger(0) // RST, not FIN: the hard-vanish case
			}
			conn.Close()
		}(conn, i)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(5 * time.Second) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown never returned with mid-frame disconnected clients")
	}
	clients.Wait()
	// Every serving goroutine must be gone; poll briefly since goroutine
	// exits trail the WaitGroup release.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after Shutdown: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServerShutdownGraceful(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ln, ServerConfig{NewStreams: mkFactory(2, 21)}) // unlimited rounds
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.NextRound(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(5 * time.Second) }()
	// The client must observe a clean goodbye-terminated end, never a
	// mid-frame cut.
	for {
		if _, err := c.NextRound(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("shutdown cut the session uncleanly: %v", err)
		}
	}
	if !c.SawGoodbye() {
		t.Fatal("shutdown must send the goodbye marker")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return")
	}
	// New connections are refused after shutdown.
	if _, err := Dial(srv.Addr().String()); err == nil {
		t.Fatal("dial after shutdown must fail")
	}
}
