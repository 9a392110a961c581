package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"packetgame/internal/codec"
	"packetgame/internal/decode"
	"packetgame/internal/overload"
)

// recordRoundPkts builds an ascending round of n packets, stream ids
// id(k), payloadLen-byte payloads derived from salt, truth on every
// truthEvery-th entry (0 = none).
func recordRoundPkts(n int, id func(k int) int32, payloadLen, truthEvery int, salt byte) []roundPacket {
	pkts := make([]roundPacket, n)
	for k := range pkts {
		payload := make([]byte, payloadLen)
		for i := range payload {
			payload[i] = salt + byte(k) + byte(i)
		}
		rp := roundPacket{stream: int(id(k)), pkt: &codec.Packet{
			StreamID: int(id(k)), Seq: int64(k) + int64(salt), PTS: int64(k) * 40, Type: codec.PictureType(k % 3),
			Size: payloadLen, Codec: codec.Codec(k % 2), GOPIndex: k % 12, GOPSize: 12, Payload: payload,
		}}
		if truthEvery > 0 && k%truthEvery == 0 {
			rp.truth = codec.Scene{Frame: int64(k), Richness: 0.5, Motion: float64(salt), PersonCount: k % 5, Fire: k%2 == 0}
			rp.hasT = true
		}
		pkts[k] = rp
	}
	return pkts
}

func streamsOf(pkts []roundPacket) []int32 {
	ids := make([]int32, len(pkts))
	for k, rp := range pkts {
		ids[k] = int32(rp.stream)
	}
	return ids
}

// recordWorker is a worker core with only its session state, behind a
// reader that takes each round frame body from where the last one came
// home: enough to take a round frame off a link into the core's one record,
// no engine, no coordinator.
func recordWorker(m int, prev []int32) *recordReader {
	return &recordReader{wcore: &wcore{cfg: ClusterConfig{Streams: m}, owned: make([]bool, m), prevIDs: prev}}
}

type recordReader struct {
	*wcore
	spare []byte
}

func (r *recordReader) place(uint8) *[]byte { return &r.spare }

// decodeRound installs the body just read into the core's record.
func (r *recordReader) decodeRound() (*roundMsg, error) {
	body := r.spare
	r.spare = nil
	return &r.rec, r.install(body)
}

// release hands the record's body back to the reader, as the engine's next
// pull does.
func (r *recordReader) release(msg *roundMsg) { r.spare = msg.body }

// readerLink is a link that only ever reads, from r.
func readerLink(r io.Reader) *link { return &link{br: bufio.NewReaderSize(r, 1<<20)} }

// within reports whether inner's bytes lie inside outer's.
func within(inner, outer []byte) bool {
	if len(inner) == 0 {
		return true
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(outer)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(inner)))
	return p >= lo && p+uintptr(len(inner)) <= lo+uintptr(len(outer))
}

// sameRound fails unless a and b hold the same round: header, ids, every
// packet field and payload byte, truth and hasT.
func sameRound(t *testing.T, a, b *roundMsg) {
	t.Helper()
	if a.round != b.round || math.Float64bits(a.bEff) != math.Float64bits(b.bEff) || a.mode != b.mode || a.rnd.M != b.rnd.M {
		t.Fatalf("headers differ: %d/%v/%d/%d vs %d/%v/%d/%d", a.round, a.bEff, a.mode, a.rnd.M, b.round, b.bEff, b.mode, b.rnd.M)
	}
	if !slices.Equal(a.rnd.IDs, b.rnd.IDs) {
		t.Fatalf("ids differ:\n%v\n%v", a.rnd.IDs, b.rnd.IDs)
	}
	if len(a.rnd.Pkts) != len(a.rnd.IDs) || len(b.rnd.Pkts) != len(b.rnd.IDs) {
		t.Fatalf("packets not parallel to ids: %d/%d, %d/%d", len(a.rnd.Pkts), len(a.rnd.IDs), len(b.rnd.Pkts), len(b.rnd.IDs))
	}
	for k := range a.rnd.Pkts {
		if !reflect.DeepEqual(*a.rnd.Pkts[k], *b.rnd.Pkts[k]) {
			t.Fatalf("packet %d differs:\n%+v\n%+v", k, *a.rnd.Pkts[k], *b.rnd.Pkts[k])
		}
	}
	if len(a.truth) != len(a.rnd.IDs) || len(a.hasT) != len(a.rnd.IDs) {
		t.Fatalf("truth/hasT length %d/%d for %d members", len(a.truth), len(a.hasT), len(a.rnd.IDs))
	}
	if !slices.Equal(a.hasT, b.hasT) {
		t.Fatalf("hasT differs:\n%v\n%v", a.hasT, b.hasT)
	}
	for k := range a.truth { // bit for bit: a fuzzed scene may hold NaNs
		if !bytes.Equal(appendScene(nil, a.truth[k]), appendScene(nil, b.truth[k])) {
			t.Fatalf("truth %d differs:\n%+v\n%+v", k, a.truth[k], b.truth[k])
		}
	}
}

// cycle reads wire over and over.
type cycle struct {
	wire []byte
	pos  int
}

func (c *cycle) Read(p []byte) (int, error) {
	n := copy(p, c.wire[c.pos:])
	c.pos = (c.pos + n) % len(c.wire)
	return n, nil
}

// alternatingRounds encodes two n-packet round frames that alternate on one
// connection with membership churn: every eighth stream of A is swapped for
// its neighbour in B, so each frame carries n/8 gone and n/8 added ids.
func alternatingRounds(n, payloadLen int) (wire []byte, bodyA, bodyB []byte, idsA, idsB []int32) {
	a := recordRoundPkts(n, func(k int) int32 { return int32(4 * k) }, payloadLen, 2, 1)
	b := recordRoundPkts(n, func(k int) int32 {
		if k%8 == 0 {
			return int32(4*k + 1)
		}
		return int32(4 * k)
	}, payloadLen, 3, 2)
	idsA, idsB = streamsOf(a), streamsOf(b)
	bodyA = encodeRoundDelta(nil, 10, 8.5, overload.Mode(1), a, idsB)
	bodyB = encodeRoundDelta(nil, 11, 9.5, overload.Mode(0), b, idsA)
	return append(rawFrame(fRound, bodyA), rawFrame(fRound, bodyB)...), bodyA, bodyB, idsA, idsB
}

// TestWorkerRoundZeroAlloc: in steady state a round costs the worker's read
// path nothing. Two alternating 2,048-packet round frames with membership
// churn come off the link — header, body into the record, CRC, delta decode,
// packets into the arena — into one recycled record, with no allocation.
func TestWorkerRoundZeroAlloc(t *testing.T) {
	const n = 2048
	wire, _, _, _, idsB := alternatingRounds(n, 96)
	w := recordWorker(4*n+2, append([]int32(nil), idsB...))
	l := readerLink(&cycle{wire: wire})
	place := w.place
	var first *roundMsg
	pair := func() {
		for i := 0; i < 2; i++ {
			typ, _, err := l.recv(0, place)
			if err != nil || typ != fRound {
				t.Fatalf("recv: type %d, %v", typ, err)
			}
			msg, err := w.decodeRound()
			if err != nil {
				t.Fatal(err)
			}
			if msg.rnd.Len() != n || !within(msg.rnd.Pkts[n-1].Payload, msg.body) {
				t.Fatalf("round of %d packets, last payload inside the record's body: %v",
					msg.rnd.Len(), within(msg.rnd.Pkts[n-1].Payload, msg.body))
			}
			if first == nil {
				first = msg
			}
			if msg != first {
				t.Fatal("a second record came into being")
			}
			w.release(msg)
		}
	}
	pair() // warm-up: the record's buffers reach their steady capacity
	if avg := testing.AllocsPerRun(10, pair); avg != 0 {
		t.Fatalf("reading and decoding a round allocates %.1f objects per pair of frames", avg)
	}
}

// TestRoundRecordNoStateLeak: a record that last held a larger frame with
// truth on every entry decodes a smaller one to exactly what a fresh record
// holds, every payload a view of the record's own body; and a frame the
// decoder rejects leaves the session's membership as it was.
func TestRoundRecordNoStateLeak(t *testing.T) {
	const m = 1024
	a := recordRoundPkts(64, func(k int) int32 { return int32(3 * k) }, 200, 1, 7)
	b := recordRoundPkts(16, func(k int) int32 { return int32(5*k + 1) }, 50, 4, 9)
	b[3].pkt.Payload = nil // an empty payload must come out nil, not as A's leftovers
	idsA, idsB := streamsOf(a), streamsOf(b)
	bodyA := encodeRoundDelta(nil, 3, 2.5, overload.Mode(2), a, nil)
	bodyB := encodeRoundDelta(nil, 4, 1.5, overload.Mode(0), b, idsA)
	wire := append(append(rawFrame(fRound, bodyA), rawFrame(fRound, bodyB)...), rawFrame(fRound, bodyB)...)

	w := recordWorker(m, nil)
	l := readerLink(bytes.NewReader(wire))
	next := func() (*roundMsg, error) {
		typ, _, err := l.recv(0, w.place)
		if err != nil || typ != fRound {
			t.Fatalf("recv: type %d, %v", typ, err)
		}
		return w.decodeRound()
	}
	recA, err := next()
	if err != nil {
		t.Fatal(err)
	}
	var freshA roundMsg
	if err := decodeRoundDelta(bodyA, m, nil, &freshA); err != nil {
		t.Fatal(err)
	}
	sameRound(t, recA, &freshA)
	w.release(recA)

	recB, err := next()
	if err != nil {
		t.Fatal(err)
	}
	if recB != recA {
		t.Fatal("the released record was not the one reused")
	}
	var freshB roundMsg
	if err := decodeRoundDelta(bodyB, m, idsA, &freshB); err != nil {
		t.Fatal(err)
	}
	sameRound(t, recB, &freshB)
	if recB.rnd.Pkts[3].Payload != nil {
		t.Fatalf("empty payload decoded as %d bytes", len(recB.rnd.Pkts[3].Payload))
	}
	for k, p := range recB.rnd.Pkts {
		if p != &recB.pkts[k] || !within(p.Payload, recB.body) {
			t.Fatalf("packet %d: in the arena %v, payload inside the record's body %v", k, p == &recB.pkts[k], within(p.Payload, recB.body))
		}
	}
	if !slices.Equal(w.prevIDs, idsB) {
		t.Fatalf("membership after B: %v", w.prevIDs)
	}

	// B again, now against B's own membership: its deltas name streams that
	// are not members. The frame is rejected and the membership stands.
	w.release(recB)
	if _, err := next(); err == nil {
		t.Fatal("a frame whose deltas do not fit the membership was accepted")
	}
	if !slices.Equal(w.prevIDs, idsB) {
		t.Fatalf("rejected frame moved the membership: %v", w.prevIDs)
	}
}

// TestRoundRecordSpikeShrinks: one 8 MB round frame does not pin 8 MB in the
// record. After 64 ordinary frames the body's retained capacity is back
// within 4× an ordinary frame, and growing for the spike never read past it
// into the frame behind (every later frame still passes its CRC and decodes).
func TestRoundRecordSpikeShrinks(t *testing.T) {
	const m = 4096
	ordinary := recordRoundPkts(256, func(k int) int32 { return int32(2 * k) }, 96, 0, 1)
	spike := recordRoundPkts(256, func(k int) int32 { return int32(2 * k) }, 32<<10, 0, 2)
	ids := streamsOf(ordinary)
	bodyO := encodeRoundDelta(nil, 1, 1, 0, ordinary, ids)
	bodyS := encodeRoundDelta(nil, 2, 1, 0, spike, ids)
	if len(bodyS) < 8<<20 || len(bodyO) > 64<<10 {
		t.Fatalf("frames of %d and %d bytes are not a spike and an ordinary one", len(bodyS), len(bodyO))
	}
	wire := append(rawFrame(fRound, bodyO), rawFrame(fRound, bodyS)...)
	for i := 0; i < 64; i++ {
		wire = append(wire, rawFrame(fRound, bodyO)...)
	}
	w := recordWorker(m, ids)
	l := readerLink(bytes.NewReader(wire))
	peak := 0
	for i := 0; i < 66; i++ {
		typ, _, err := l.recv(0, w.place)
		if err != nil || typ != fRound {
			t.Fatalf("frame %d: type %d, %v", i, typ, err)
		}
		msg, err := w.decodeRound()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		peak = max(peak, cap(msg.body))
		if i == 65 && cap(msg.body) > 4*len(bodyO) {
			t.Fatalf("record still holds %d bytes of body for %d-byte frames", cap(msg.body), len(bodyO))
		}
		w.release(msg)
	}
	if peak < len(bodyS) {
		t.Fatalf("peak body capacity %d never held the %d-byte spike", peak, len(bodyS))
	}
	if _, _, err := l.recv(0, nil); err != io.EOF {
		t.Fatalf("after the last frame: %v, want EOF", err)
	}
}

// slowDecoder holds every packet for a moment before decoding it, so a round
// is still being read from well after its frame arrived.
type slowDecoder struct {
	decode.PacketDecoder
}

func (s slowDecoder) Decode(p *codec.Packet) (decode.Frame, error) {
	time.Sleep(50 * time.Microsecond)
	return s.PacketDecoder.Decode(p)
}

// TestClusterReleaseUnderSlowDecode holds the records' release point to the
// oracle: with every decode delayed, and the coordinator lockstep or sending
// rounds ahead, a record handed back while a decoder could still read its
// packets is a write under that read — a race report under -race, a failed
// decode or a diverged selection otherwise.
func TestClusterReleaseUnderSlowDecode(t *testing.T) {
	p := clusterParams{m: 192, workers: 3, rounds: 40, window: 4, seed: 23}
	p.budget = 4 + float64(p.m)/8
	oracle := oracleSelections(t, p)
	slow := func(i int) WorkerOptions {
		return WorkerOptions{Name: fmt.Sprintf("w%d", i), WrapDecoder: func(d decode.PacketDecoder) decode.PacketDecoder { return slowDecoder{d} }}
	}
	quick, _, _ := runCluster(t, coordConfig(p), p.workers, nil)
	for _, pipelined := range []bool{false, true} {
		cfg := coordConfig(p)
		if pipelined {
			cfg.MaxInFlight = 3
		}
		rep, sels, _ := runCluster(t, cfg, p.workers, slow)
		assertSelectionsEqual(t, oracle, sels)
		if rep.DecodeFailed != 0 || rep.Decoded != quick.Decoded || rep.PosCorrect != quick.PosCorrect || rep.NegCorrect != quick.NegCorrect {
			t.Fatalf("pipelined=%v: slow decoders saw different packets: %+v\nundelayed: %+v", pipelined, rep, quick)
		}
	}
}

// BenchmarkDecodeRoundDelta is the parse cost of one 2,048-packet round frame
// into a recycled record — the micro-number beside the ledger's
// cluster-loopback alloc_bytes_per_round.
func BenchmarkDecodeRoundDelta(b *testing.B) {
	const n = 2048
	_, bodyA, bodyB, idsA, idsB := alternatingRounds(n, 96)
	var msg roundMsg
	b.SetBytes(int64(len(bodyA)+len(bodyB)) / 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 2 {
		if err := decodeRoundDelta(bodyA, 4*n+2, idsB, &msg); err != nil {
			b.Fatal(err)
		}
		if err := decodeRoundDelta(bodyB, 4*n+2, idsA, &msg); err != nil {
			b.Fatal(err)
		}
	}
}
