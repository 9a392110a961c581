package capture

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/trace"
)

// testMeta builds a small session header for synthetic captures.
func testMeta(streams int, gate *GateMeta) SessionMeta {
	m := SessionMeta{Label: "test"}
	for i := 0; i < streams; i++ {
		m.Streams = append(m.Streams, StreamMeta{Codec: "h264", FPS: 25, GOPSize: 25})
	}
	m.Gate = gate
	return m
}

// writeRounds writes `rounds` dense rounds of one packet per stream at the
// given timestamps (len(ts) == rounds).
func writeRounds(t *testing.T, w *Writer, streams int, ts []time.Duration) {
	t.Helper()
	seq := int64(0)
	for r, at := range ts {
		for s := 0; s < streams; s++ {
			p := &codec.Packet{
				StreamID: s, Seq: seq, Type: codec.PictureP, Size: 1000 + 100*s,
				GOPIndex: r % 25, GOPSize: 25, Payload: []byte{1, 2, 3},
			}
			if r%25 == 0 {
				p.Type = codec.PictureI
			}
			if err := w.WritePacket(at, int64(r), p); err != nil {
				t.Fatalf("WritePacket(r=%d s=%d): %v", r, s, err)
			}
			seq++
		}
	}
}

func TestCaptureRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMeta(3, nil))
	if err != nil {
		t.Fatal(err)
	}
	ts := []time.Duration{0, 40 * time.Millisecond, 80 * time.Millisecond, 520 * time.Millisecond}
	writeRounds(t, w, 3, ts)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	c, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Rounds) != 4 {
		t.Fatalf("rounds = %d, want 4", len(c.Rounds))
	}
	var rnd codec.Round
	for i, r := range c.Rounds {
		if r.TS != ts[i] || r.Round != int64(i) {
			t.Errorf("round %d: round %d at %v, want %v", i, r.Round, r.TS, ts[i])
		}
		if err := c.DecodeRound(i, &rnd); err != nil {
			t.Fatal(err)
		}
		if rnd.M != 3 || rnd.Len() != 3 {
			t.Fatalf("round %d: %d of %d streams", i, rnd.Len(), rnd.M)
		}
		for k, p := range rnd.Pkts {
			if p.StreamID != k || rnd.IDs[k] != int32(k) || p.Codec != codec.H264 {
				t.Fatalf("round %d entry %d: bad packet %+v", i, k, p)
			}
			if !bytes.Equal(p.Payload, []byte{1, 2, 3}) {
				t.Fatalf("round %d entry %d: payload not preserved", i, k)
			}
		}
	}
	if c.Index == nil {
		t.Fatal("no index")
	}
	if c.Index.Packets != 12 || c.Index.Rounds != 4 {
		t.Fatalf("index says %d packets / %d rounds", c.Index.Packets, c.Index.Rounds)
	}
	if got := c.Index.Duration(); got != 520*time.Millisecond {
		t.Fatalf("index duration %v", got)
	}
}

func TestCaptureStripPayloads(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMeta(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	w.StripPayloads = true
	writeRounds(t, w, 2, []time.Duration{0, time.Millisecond})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var rnd codec.Round
	if err := c.DecodeRound(0, &rnd); err != nil {
		t.Fatal(err)
	}
	p := rnd.Pkts[0]
	if len(p.Payload) != 0 {
		t.Fatalf("payload survived stripping: %d bytes", len(p.Payload))
	}
	if p.Size != 1000 {
		t.Fatalf("size metadata lost: %d", p.Size)
	}
}

// TestWriterRejectsOutOfOrder: each row writes round 5 (streams 0 and 1 at
// 1 s), then a packet the round records cannot hold. The packet is refused
// and leaves no trace: the capture still loads with round 5 as written.
func TestWriterRejectsOutOfOrder(t *testing.T) {
	pkt := func(s int) *codec.Packet { return &codec.Packet{StreamID: s, Type: codec.PictureP, Size: 10} }
	rows := []struct {
		name string
		bad  func(w *Writer) error
	}{
		{"regressing timestamp", func(w *Writer) error { return w.WritePacket(time.Millisecond, 6, pkt(0)) }},
		{"regressing round at equal timestamp", func(w *Writer) error { return w.WritePacket(time.Second, 4, pkt(0)) }},
		{"timestamp changes within a round", func(w *Writer) error { return w.WritePacket(time.Second+time.Millisecond, 5, pkt(2)) }},
		{"stream repeated within a round", func(w *Writer) error { return w.WritePacket(time.Second, 5, pkt(1)) }},
		{"stream out of order within a round", func(w *Writer) error { return w.WritePacket(time.Second, 5, pkt(0)) }},
		{"packet of a round already written", func(w *Writer) error {
			if err := w.WriteDecision(trace.Round{}); err != nil {
				t.Fatal(err)
			}
			return w.WritePacket(time.Second, 5, pkt(2))
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var buf bytes.Buffer
			w, err := NewWriter(&buf, testMeta(3, nil))
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < 2; s++ {
				if err := w.WritePacket(time.Second, 5, pkt(s)); err != nil {
					t.Fatal(err)
				}
			}
			if err := row.bad(w); err == nil {
				t.Fatal("accepted")
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			c, err := Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var rnd codec.Round
			if len(c.Rounds) != 1 || c.DecodeRound(0, &rnd) != nil || rnd.Len() != 2 || c.Index.Packets != 2 {
				t.Fatalf("the refused packet left a trace: %d rounds, index %+v", len(c.Rounds), c.Index)
			}
		})
	}
}

func TestReadIndexFastPath(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMeta(2, &GateMeta{Budget: 3, Window: 5}))
	if err != nil {
		t.Fatal(err)
	}
	writeRounds(t, w, 2, []time.Duration{0, 100 * time.Millisecond})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	meta, idx, err := ReadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Gate == nil || meta.Gate.Budget != 3 {
		t.Fatalf("gate meta lost: %+v", meta.Gate)
	}
	if idx.Packets != 4 || idx.Rounds != 2 {
		t.Fatalf("index %+v", idx)
	}
	if len(idx.PerStream) != 2 || idx.PerStream[1].Packets != 2 {
		t.Fatalf("per-stream stats %+v", idx.PerStream)
	}
}

func TestFilterStreamsKeepsSlots(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMeta(4, nil))
	if err != nil {
		t.Fatal(err)
	}
	writeRounds(t, w, 4, []time.Duration{0, 10 * time.Millisecond})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.FilterStreams([]int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rounds) != 2 {
		t.Fatalf("%d rounds, want 2", len(got.Rounds))
	}
	var rnd codec.Round
	for i := range got.Rounds {
		if err := got.DecodeRound(i, &rnd); err != nil {
			t.Fatal(err)
		}
		if rnd.M != 4 || rnd.Len() != 2 || rnd.IDs[0] != 1 || rnd.IDs[1] != 3 || rnd.Pkts[1].StreamID != 3 {
			t.Fatalf("round %d kept streams %v of %d, want [1 3] of 4", i, rnd.IDs, rnd.M)
		}
	}
	if _, err := c.FilterStreams([]int{9}); err == nil {
		t.Fatal("out-of-range stream accepted")
	}
}

func TestSaveRoundtripsFilteredCapture(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMeta(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	ts := []time.Duration{0, time.Second, 2 * time.Second, 3 * time.Second}
	writeRounds(t, w, 2, ts)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cut := c.FilterWindow(Window{From: time.Second, To: 3 * time.Second}, true)
	if len(cut.Rounds) != 2 {
		t.Fatalf("window kept %d rounds, want 2", len(cut.Rounds))
	}
	if cut.Rounds[0].TS != 0 || cut.Rounds[1].TS != time.Second {
		t.Fatalf("rebase failed: %v %v", cut.Rounds[0].TS, cut.Rounds[1].TS)
	}
	var out bytes.Buffer
	if err := cut.Save(&out); err != nil {
		t.Fatal(err)
	}
	back, err := Load(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rounds) != 2 || back.Rounds[1].TS != time.Second {
		t.Fatalf("saved capture mismatched: %d rounds", len(back.Rounds))
	}
}

func TestAuditRequiresGateMeta(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMeta(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	writeRounds(t, w, 2, []time.Duration{0})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Audit(c, AuditOptions{}); err == nil {
		t.Fatal("audit of a packets-only capture should error")
	}
}

// TestAuditDetectsTamperedTrace flips one recorded decision and expects the
// audit to fail loudly — the property the golden corpus test relies on.
func TestAuditDetectsTamperedTrace(t *testing.T) {
	spec := DefaultCorpus()[1] // corpus-steady: small, ungoverned
	var buf bytes.Buffer
	if err := GenerateCorpus(&buf, spec); err != nil {
		t.Fatal(err)
	}
	c, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: untampered audit passes.
	res, err := Audit(c, AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("clean corpus diverged: %+v", res)
	}
	// Tamper: flip the Selected bit of one mid-capture decision.
	tampered := 40
	flipped := false
	for d := range c.Decisions[tampered].Decisions {
		c.Decisions[tampered].Decisions[d].Selected = !c.Decisions[tampered].Decisions[d].Selected
		flipped = true
		break
	}
	if !flipped {
		t.Fatal("no decision to tamper with")
	}
	res, err = Audit(c, AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ok() {
		t.Fatal("tampered trace passed the audit")
	}
	if res.FirstDivergence != tampered {
		t.Fatalf("first divergence at %d, want %d", res.FirstDivergence, tampered)
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMeta(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	writeRounds(t, w, 2, []time.Duration{0, time.Millisecond})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) - 1, len(full) - footerLen, len(full) / 2, 5, 1} {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		} else if !errors.Is(err, ErrCorrupt) {
			// io errors (unexpected EOF) are fine too, but structural
			// detections must wrap ErrCorrupt; either way it must not pass.
			t.Logf("cut %d: %v", cut, err)
		}
	}
}
