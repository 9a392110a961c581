package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// rawFrame builds one wire frame by hand, so the table can damage it.
func rawFrame(typ uint8, body []byte) []byte {
	hdr := []byte{typ, 0, 0, 0, 0, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(hdr[1:5], uint32(len(body)))
	binary.BigEndian.PutUint32(hdr[5:9], crc32.Checksum(body, crcTable))
	return append(hdr, body...)
}

func mustGob(t *testing.T, v any) []byte {
	t.Helper()
	body, err := gobEncode(v)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// pipeListener hands serveLinks the server ends of in-memory pipes.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}
func (l *pipeListener) Close() error   { close(l.done); return nil }
func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe"} }

// TestLinkHandshakeTable drives both halves of the connection shell over
// net.Pipe, no cluster anywhere: what a server makes of each damaged opening,
// what a client makes of each wrong or missing answer, and where serveLinks
// queues each of the three hello kinds.
func TestLinkHandshakeTable(t *testing.T) {
	base := runtime.NumGoroutine()
	join := mustGob(t, &JoinInfo{Name: "w7"})
	flipped := rawFrame(fJoin, join)
	flipped[5] ^= 0x10 // one CRC bit
	huge := rawFrame(fJoin, nil)
	binary.BigEndian.PutUint32(huge[1:5], maxFrameBody+1)
	whole := rawFrame(fJoin, join)

	t.Run("accept", func(t *testing.T) {
		for _, tc := range []struct {
			name, wantErr string
			wire          []byte
		}{
			{"bad magic", "bad magic", append([]byte("XGCP\x00\x03"), whole...)},
			{"wrong version", "protocol version 2", append([]byte("PGCP\x00\x02"), whole...)},
			{"body over the bound", "exceeds limit", append(append([]byte(nil), preamble...), huge...)},
			{"flipped CRC bit", "CRC mismatch", append(append([]byte(nil), preamble...), flipped...)},
			{"truncated hello", "EOF", append(append([]byte(nil), preamble...), whole[:len(whole)-3]...)},
			{"truncated preamble", "EOF", preamble[:4]},
		} {
			client, server := net.Pipe()
			go func() {
				client.Write(tc.wire)
				client.Close()
			}()
			p, err := acceptLink(server)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: acceptLink = %v, %v; want an error naming %q", tc.name, p, err, tc.wantErr)
			}
			if _, werr := server.Write([]byte{0}); werr == nil {
				t.Errorf("%s: refused connection left open", tc.name)
			}
		}
		client, server := net.Pipe()
		go func() {
			client.Write(append(append([]byte(nil), preamble...), whole...))
		}()
		p, err := acceptLink(server)
		if err != nil || p.typ != fJoin || !bytes.Equal(p.hello, join) {
			t.Fatalf("intact hello: %+v, %v", p, err)
		}
		p.close()
		client.Close()
	})

	t.Run("identify", func(t *testing.T) {
		// A join's opening exchange, its reply decoded as Dial decodes it.
		identify := func(l *link, wel *Welcome, wait time.Duration) error {
			typ, body, err := l.exchange(fJoin, mustGob(t, &JoinInfo{Name: "w"}), wait)
			return answer(typ, body, err, fWelcome, wel)
		}
		// The peer reads the preamble and hello, then answers with reply (or
		// never, when reply is nil) and holds the connection until told.
		peer := func(server net.Conn, reply []byte, release <-chan struct{}) {
			p, err := acceptLink(server)
			if err != nil {
				t.Errorf("peer: %v", err)
				return
			}
			if reply != nil {
				p.conn.Write(reply)
			}
			<-release
			p.close()
		}
		for _, tc := range []struct {
			name, wantErr string
			reply         []byte
		}{
			{"unexpected reply type", "expected reply frame 2, got 13", rawFrame(fGoodbye, nil)},
			{"reply fails its CRC", "CRC mismatch", flipped},
			{"reply is not the gob it should be", "", rawFrame(fWelcome, []byte{0xFF, 0x01})},
			{"peer never replies", "i/o timeout", nil},
		} {
			client, server := net.Pipe()
			release := make(chan struct{})
			go peer(server, tc.reply, release)
			l := newLink(client)
			var wel Welcome
			start := time.Now()
			err := identify(l, &wel, 100*time.Millisecond)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: identify = %v; want an error naming %q", tc.name, err, tc.wantErr)
			}
			if tc.reply == nil {
				var ne net.Error
				if !errors.As(err, &ne) || !ne.Timeout() || time.Since(start) > 5*time.Second {
					t.Errorf("%s: want a prompt timeout, got %v after %v", tc.name, err, time.Since(start))
				}
			}
			l.close()
			close(release)
		}
		client, server := net.Pipe()
		release := make(chan struct{})
		go peer(server, rawFrame(fWelcome, mustGob(t, &Welcome{WorkerID: 4, Epoch: 9})), release)
		var wel Welcome
		l := newLink(client)
		if err := identify(l, &wel, time.Second); err != nil || wel.WorkerID != 4 || wel.Epoch != 9 {
			t.Fatalf("intact exchange: %+v, %v", wel, err)
		}
		l.close()
		close(release)
	})

	t.Run("route", func(t *testing.T) {
		ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
		stop := make(chan struct{})
		queues := map[uint8]chan *pending{
			fJoin: make(chan *pending, 1), fStandbyJoin: make(chan *pending, 1), fRejoin: make(chan *pending, 1),
		}
		go serveLinks(ln, stop, func(hello uint8) chan<- *pending { return queues[hello] })
		hellos := map[uint8][]byte{
			fJoin:        join,
			fStandbyJoin: mustGob(t, &StandbyJoin{Name: "sb", Addr: "10.0.0.1:9"}),
			fRejoin:      mustGob(t, &RejoinInfo{WorkerID: 3, Clock: 41, Deltas: AccDeltas{PosRounds: 2}}),
		}
		var clients []net.Conn
		for typ, body := range hellos {
			client, server := net.Pipe()
			clients = append(clients, client)
			ln.conns <- server
			go client.Write(append(append([]byte(nil), preamble...), rawFrame(typ, body)...))
		}
		for typ, body := range hellos {
			select {
			case p := <-queues[typ]:
				if p.typ != typ || !bytes.Equal(p.hello, body) {
					t.Errorf("hello %d arrived as type %d, body intact: %v", typ, p.typ, bytes.Equal(p.hello, body))
				}
				p.close()
			case <-time.After(5 * time.Second):
				t.Fatalf("hello %d never reached its queue", typ)
			}
		}
		// A hello type nobody queues for is hung up on, at once.
		client, server := net.Pipe()
		ln.conns <- server
		go client.Write(append(append([]byte(nil), preamble...), rawFrame(fGrant, nil)...))
		client.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := client.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("unroutable hello: read %v, want EOF from a closed connection", err)
		}
		// A routed connection nobody dequeues is dropped when stop closes.
		client2, server2 := net.Pipe()
		ln.conns <- server2
		go client2.Write(append(append([]byte(nil), preamble...), rawFrame(fJoin, join)...))
		client3, server3 := net.Pipe()
		ln.conns <- server3
		go client3.Write(append(append([]byte(nil), preamble...), rawFrame(fJoin, join)...))
		close(stop)
		ln.Close()
		for _, c := range append(clients, client, client2, client3) {
			c.Close()
		}
		for len(queues[fJoin]) > 0 {
			(<-queues[fJoin]).close()
		}
	})
	waitClusterGoroutines(t, base)
}

// TestLinkSendAfterDeadIsSticky: the first write error closes the connection
// and is what every later send returns; close is the same, with its own
// error. A heartbeat pump on the link ends with it.
func TestLinkSendAfterDeadIsSticky(t *testing.T) {
	base := runtime.NumGoroutine()
	client, server := net.Pipe()
	l := newLink(client)
	pump := make(chan error, 1)
	go func() { pump <- l.beat(time.Hour, func() []byte { return nil }) }()
	server.Close()
	first := l.send(fGoodbye, nil)
	if first == nil {
		t.Fatal("send to a closed peer succeeded")
	}
	if l.alive() {
		t.Fatal("link alive after a failed send")
	}
	for i := 0; i < 3; i++ {
		if err := l.send(fHeartbeat, nil); err != first {
			t.Fatalf("send %d after death returned %v, want the first error %v", i, err, first)
		}
	}
	if _, err := client.Read(make([]byte, 1)); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("connection not closed by the failed send: read %v", err)
	}
	select {
	case err := <-pump:
		if err != nil {
			t.Fatalf("pump that sent nothing returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("heartbeat pump outlived its link")
	}
	l.close() // idempotent, and the sticky error stands
	if err := l.send(fGoodbye, nil); err != first {
		t.Fatalf("close replaced the sticky error: %v", err)
	}

	client, server = net.Pipe()
	defer server.Close()
	l = newLink(client)
	l.close()
	err := l.send(fGoodbye, nil)
	if err == nil || l.send(fGoodbye, nil) != err || l.alive() {
		t.Fatalf("send after close: %v, alive=%v", err, l.alive())
	}
	waitClusterGoroutines(t, base)
}

// TestClusterIOConfinedToLink keeps the shell a shell: over the package's
// non-test files, the calls that dial, wrap a connection in buffers, speak
// the preamble, arm a read deadline, or read or write a frame — anything
// bufio, io.ReadFull, a make([]byte sized by the wire — occur only in link.go
// (net.Listen also in NewCoordinator), and proto.go, which only encodes and
// decodes bodies in memory, imports neither bufio nor io; only link.go reads
// a frame (recv); the package reads the wall clock at exactly one site (the
// shell's clock); one statement sends fTakeover; the connection handle
// carries no socket of its own; and there is no real-timer site outside
// link.go.
func TestClusterIOConfinedToLink(t *testing.T) {
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	confined := []string{"net.Dial", "net.Listen", "bufio.", "io.ReadFull",
		"writeHandshake", "readHandshake", "SetReadDeadline", "SetDeadline", "writeFrame(", "readBody(", ".Accept()"}
	allowed := map[string]string{"net.Listen": "coord.go"}
	timers := regexp.MustCompile(`time\.(After|NewTimer|NewTicker|Sleep|AfterFunc|Tick)\(`)
	wireSized := regexp.MustCompile(`make\(\[\]byte,[^)]*[a-zA-Z_]`) // a byte buffer whose size is not a literal
	timerSites, takeoverSends, quorumLoops, clockReads := 0, 0, 0, 0
	for _, f := range files {
		name := f.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(src), "\n") {
			if i := strings.Index(line, "//"); i >= 0 {
				line = line[:i]
			}
			takeoverSends += strings.Count(line, "send(fTakeover")
			quorumLoops += strings.Count(line, "< c.cfg.MinWorkers")
			clockReads += strings.Count(line, "time.Now(")
			if name == "link.go" {
				continue
			}
			if name == "proto.go" && (strings.TrimSpace(line) == `"bufio"` || strings.TrimSpace(line) == `"io"`) {
				t.Errorf("proto.go:%d: imports %s", n+1, strings.TrimSpace(line))
			}
			timerSites += len(timers.FindAllString(line, -1))
			if strings.Contains(line, "recv(") {
				t.Errorf("%s:%d: reads a frame (recv) outside link.go", name, n+1)
			}
			if wireSized.MatchString(line) {
				t.Errorf("%s:%d: byte buffer sized at run time outside link.go", name, n+1)
			}
			for _, call := range confined {
				if strings.Contains(line, call) && allowed[call] != name {
					t.Errorf("%s:%d: %s outside link.go", name, n+1, call)
				}
			}
		}
	}
	if takeoverSends != 1 {
		t.Errorf("%d statements send fTakeover, want exactly one (replyTakeover)", takeoverSends)
	}
	if clockReads != 1 {
		t.Errorf("%d time.Now( sites in the package, want exactly one (the shell's clock)", clockReads)
	}
	if quorumLoops != 1 {
		t.Errorf("%d loops wait for MinWorkers, want exactly one (awaitQuorum)", quorumLoops)
	}
	// The coordinator's timer and the worker's re-join timer are the shell's.
	if timerSites != 0 {
		t.Errorf("%d real-timer sites outside link.go, recorded 0: justify one that came", timerSites)
	}
	sockets := []reflect.Type{reflect.TypeOf((*net.Conn)(nil)).Elem(), reflect.TypeOf(&bufio.Reader{}), reflect.TypeOf(&bufio.Writer{})}
	for _, handle := range []reflect.Type{reflect.TypeOf(peer{})} {
		embedsLink := false
		for i := 0; i < handle.NumField(); i++ {
			fld := handle.Field(i)
			embedsLink = embedsLink || (fld.Anonymous && fld.Type == reflect.TypeOf(&link{}))
			for _, s := range sockets {
				if fld.Type == s {
					t.Errorf("%s.%s is a %s of its own", handle.Name(), fld.Name, s)
				}
			}
		}
		if !embedsLink {
			t.Errorf("%s does not embed *link", handle.Name())
		}
	}
}

// TestFrameLengthIsNotTrusted: the length in a frame header is a claim. A
// header promising 200 MB with nothing behind it, or with a little behind it,
// costs the reader what actually arrived — not 200 MB up front — whether the
// body goes to fresh memory or into a caller's buffer; a cut that falls on a
// read boundary inside a body is still a truncated frame, not a clean end.
func TestFrameLengthIsNotTrusted(t *testing.T) {
	header := func(n uint32) []byte {
		hdr := rawFrame(fRound, nil)
		binary.BigEndian.PutUint32(hdr[1:5], n)
		return hdr
	}
	var own []byte
	for _, tc := range []struct {
		name    string
		wire    []byte
		place   func(uint8) *[]byte
		wantErr error
	}{
		{"header then EOF, fresh memory", header(200 << 20), nil, io.EOF},
		{"header then EOF, caller's buffer", header(200 << 20), func(uint8) *[]byte { return &own }, io.EOF},
		{"header then 100 KB", append(header(200<<20), make([]byte, 100<<10)...), nil, io.ErrUnexpectedEOF},
		{"cut on a read boundary", append(header(200<<20), make([]byte, bodyGrowStep)...), nil, io.ErrUnexpectedEOF},
	} {
		l := &link{br: bufio.NewReader(bytes.NewReader(tc.wire))}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, body, err := l.recv(0, tc.place)
		runtime.ReadMemStats(&after)
		if err != tc.wantErr || body != nil {
			t.Errorf("%s: recv = %d bytes, %v; want %v", tc.name, len(body), err, tc.wantErr)
		}
		// Under 2 MB for nothing; growth is append's, so a few times what came.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*uint64(len(tc.wire))+(2<<20) {
			t.Errorf("%s: reader allocated %d bytes for %d that arrived", tc.name, grew, len(tc.wire))
		}
	}
}
