package stream

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/container"
)

func samePacket(a, b *codec.Packet) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return a.StreamID == b.StreamID && a.Seq == b.Seq && a.PTS == b.PTS &&
		a.Type == b.Type && a.Size == b.Size && a.Codec == b.Codec &&
		string(a.Payload) == string(b.Payload)
}

// handWritten frames a session of len(fleet) streams by hand: the
// handshake, each round (dense, nil = idle) as one round frame or as one
// per-stream frame per packet, then a goodbye unless open is set.
func handWritten(t *testing.T, fleet []*codec.Stream, rounds [][]*codec.Packet, roundFrames, open bool) []byte {
	t.Helper()
	var wire bytes.Buffer
	bw := bufio.NewWriter(&wire)
	if err := writeHandshake(bw, fleet); err != nil {
		t.Fatal(err)
	}
	var enc RoundEncoder
	var rnd codec.Round
	for r, pkts := range rounds {
		if roundFrames {
			rnd.FromDense(pkts)
			bw.Write(enc.Encode(uint64(r), &rnd))
			continue
		}
		for i, p := range pkts {
			if p != nil {
				bw.Write(appendFrame(nil, uint64(r), uint32(i), container.MarshalPacket(nil, p)))
			}
		}
	}
	if !open {
		bw.Write(appendGoodbye(nil, uint64(len(rounds))))
	}
	bw.Flush()
	return wire.Bytes()
}

// pipeClient hands wire to a Client over an in-memory connection. The
// server end stays open until the test ends when hold is set, so a reader
// that wants one more frame blocks instead of seeing EOF.
func pipeClient(t *testing.T, wire []byte, hold bool) *Client {
	t.Helper()
	client, server := net.Pipe()
	go func() {
		server.Write(wire)
		if !hold {
			server.Close()
		}
	}()
	t.Cleanup(func() { server.Close() })
	c, err := NewClient(client)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// readAll drains c through NextRound (dense) or NextRoundSparse into dense
// per-round copies, checking each sparse round's shape on the way.
func readAll(t *testing.T, c *Client, sparse bool) [][]*codec.Packet {
	t.Helper()
	var all [][]*codec.Packet
	for {
		var dense []*codec.Packet
		var err error
		if sparse {
			var rnd *codec.Round
			if rnd, err = c.NextRoundSparse(); err == nil {
				if verr := rnd.Validate(); verr != nil {
					t.Fatalf("round %d invalid: %v", len(all), verr)
				}
				dense = denseView(new([]*codec.Packet), rnd)
			}
		} else {
			var pkts []*codec.Packet
			if pkts, err = c.NextRound(); err == nil {
				dense = append([]*codec.Packet(nil), pkts...)
			}
		}
		if err == io.EOF {
			return all
		}
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, dense)
	}
}

// fleetRounds draws n rounds from a seeded fleet with a fixed idle pattern
// (every round keeps at least one packet: the per-stream wire cannot
// express an empty round).
func fleetRounds(fleet []*codec.Stream, n int) [][]*codec.Packet {
	rounds := make([][]*codec.Packet, n)
	for r := range rounds {
		rounds[r] = make([]*codec.Packet, len(fleet))
		for i, st := range fleet {
			p := st.Next()
			p.Codec = st.Encoder.Config().Codec
			if (r+i)%3 != 0 || i == 0 {
				rounds[r][i] = p
			}
		}
	}
	return rounds
}

// sameRounds fails the test unless got holds want's rounds: same count,
// width and packets, idle slots included.
func sameRounds(t *testing.T, label string, got, want [][]*codec.Packet, width int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rounds, want %d", label, len(got), len(want))
	}
	for r := range got {
		if len(got[r]) != width {
			t.Fatalf("%s: round %d width %d, want %d", label, r, len(got[r]), width)
		}
		for i := range got[r] {
			if !samePacket(want[r][i], got[r][i]) {
				t.Fatalf("%s: round %d stream %d: packets differ", label, r, i)
			}
		}
	}
}

// TestSparseWireMatchesDenseWire writes the same seeded rounds by hand as
// per-stream frames (gathered until the next round's first frame) and as
// round frames, and checks both readers deliver the rounds that were
// written — same count, packets, idle slots and goodbye — through NextRound
// and NextRoundSparse alike: the round frame is a transport optimization,
// not a semantic change.
func TestSparseWireMatchesDenseWire(t *testing.T) {
	const m, n = 5, 16
	fleet := mkFactory(m, 11)()
	rounds := fleetRounds(mkFactory(m, 11)(), n)
	for _, roundFrames := range []bool{false, true} {
		wire := handWritten(t, fleet, rounds, roundFrames, false)
		for _, sparse := range []bool{false, true} {
			c := pipeClient(t, wire, false)
			label := fmt.Sprintf("roundFrames=%v sparse=%v", roundFrames, sparse)
			sameRounds(t, label, readAll(t, c, sparse), rounds, m)
			if !c.SawGoodbye() {
				t.Errorf("%s: session should end with goodbye", label)
			}
		}
	}
}

// TestNextRoundSparseBothFormats checks NextRoundSparse against NextRound on
// both wire formats: each round valid at the session's width, the same
// packets, and EOF after the same count. The empty-round row is a round
// frame that holds no stream: both APIs deliver it as a round.
func TestNextRoundSparseBothFormats(t *testing.T) {
	fleet4, fleet2 := mkFactory(4, 23)(), mkFactory(2, 12)()
	ten := fleetRounds(mkFactory(4, 23)(), 10)
	two := fleetRounds(mkFactory(2, 12)(), 3)
	rows := []struct {
		name        string
		fleet       []*codec.Stream
		rounds      [][]*codec.Packet
		roundFrames bool
	}{
		{"dense-wire", fleet4, ten, false},
		{"sparse-wire", fleet4, ten, true},
		{"empty-round", fleet2, [][]*codec.Packet{two[0], {nil, nil}, {nil, two[1][1]}}, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			m := len(row.fleet)
			wire := handWritten(t, row.fleet, row.rounds, row.roundFrames, false)
			want := readAll(t, pipeClient(t, wire, false), false)
			sameRounds(t, "NextRound", want, row.rounds, m)
			c := pipeClient(t, wire, false)
			for r := 0; ; r++ {
				rnd, err := c.NextRoundSparse()
				if err == io.EOF {
					if r != len(want) {
						t.Fatalf("sparse EOF after %d rounds, want %d", r, len(want))
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := rnd.Validate(); err != nil {
					t.Fatalf("round %d invalid: %v", r, err)
				}
				if rnd.M != m {
					t.Fatalf("round %d width %d, want %d", r, rnd.M, m)
				}
				if r >= len(want) {
					t.Fatalf("sparse round %d past NextRound's %d rounds", r, len(want))
				}
				for i := 0; i < m; i++ {
					if !samePacket(want[r][i], rnd.Get(int32(i))) {
						t.Fatalf("round %d stream %d: packets differ", r, i)
					}
				}
			}
		})
	}
}

// TestRoundFrameClosesOnItsOwnFrame: a round frame, then nothing more on a
// connection that stays open. Both APIs must hand the round over without
// waiting for a next frame that has not been sent.
func TestRoundFrameClosesOnItsOwnFrame(t *testing.T) {
	fleet := mkFactory(3, 13)()
	rounds := fleetRounds(mkFactory(3, 13)(), 1)
	wire := handWritten(t, fleet, rounds, true, true)
	for _, sparse := range []bool{false, true} {
		c := pipeClient(t, wire, true)
		got := make(chan []*codec.Packet, 1)
		go func() {
			if sparse {
				rnd, err := c.NextRoundSparse()
				if err != nil {
					t.Error(err)
					got <- nil
					return
				}
				got <- denseView(new([]*codec.Packet), rnd)
				return
			}
			pkts, err := c.NextRound()
			if err != nil {
				t.Error(err)
			}
			got <- pkts
		}()
		select {
		case pkts := <-got:
			if len(pkts) != len(rounds[0]) {
				t.Fatalf("sparse=%v: round width %d, want %d", sparse, len(pkts), len(rounds[0]))
			}
			for i := range rounds[0] {
				if !samePacket(rounds[0][i], pkts[i]) {
					t.Fatalf("sparse=%v: stream %d: packets differ", sparse, i)
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("sparse=%v: round not delivered until a later frame arrives", sparse)
		}
	}
}
