package capture

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/container"
	"packetgame/internal/stream"
)

// fuzzSeed builds a small valid capture for the fuzz corpus.
func fuzzSeed(tb testing.TB) []byte {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMeta(2, &GateMeta{Budget: 2, Window: 3, UseTemporal: true}))
	if err != nil {
		tb.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		for s := 0; s < 2; s++ {
			p := &codec.Packet{
				StreamID: s, Seq: int64(r*2 + s), Type: codec.PictureP,
				Size: 1000 + s, GOPIndex: r, GOPSize: 25, Payload: []byte{9, 8, 7},
			}
			if r == 0 {
				p.Type = codec.PictureI
			}
			if err := w.WritePacket(time.Duration(r)*40*time.Millisecond, int64(r), p); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// handMade frames a two-stream capture by hand: magic and version, the
// session header, then the given records, with no index.
func handMade(tb testing.TB, magic string, version byte, records ...[]byte) []byte {
	meta, err := json.Marshal(testMeta(2, nil))
	if err != nil {
		tb.Fatal(err)
	}
	b := container.AppendRecord(append([]byte(magic), version), uint8(RecSession), meta)
	for _, rec := range records {
		b = append(b, rec...)
	}
	return b
}

// roundRecord frames one round record: ts and round as given (already
// uvarint-coded), then the body.
func roundRecord(ts, round, body []byte) []byte {
	rec := append(append(append([]byte(nil), ts...), round...), body...)
	return container.AppendRecord(nil, uint8(RecRound), rec)
}

// malformed returns the hand-made files every reader must refuse, by name.
func malformed(tb testing.TB) map[string][]byte {
	var enc stream.RoundEncoder
	p := &codec.Packet{Type: codec.PictureI, Size: 100, GOPSize: 25}
	body := func(ids ...int32) []byte {
		r := codec.Round{M: 3, IDs: ids}
		for range ids {
			r.Pkts = append(r.Pkts, p)
		}
		return enc.AppendBody(nil, &r)
	}
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	pgc1Packet := make([]byte, 20+29) // stream·round·ts prefix, then a packet record
	pgc1Packet[20+16] = byte(codec.PictureI)
	return map[string][]byte{
		"id ≥ m":              handMade(tb, "PGC2", 2, roundRecord(uv(0), uv(0), body(0, 2))),
		"overlong uvarint":    handMade(tb, "PGC2", 2, roundRecord([]byte{0x80, 0x00}, uv(0), body(0))),
		"trailing bytes":      handMade(tb, "PGC2", 2, roundRecord(uv(0), uv(0), append(body(0, 1), 0))),
		"regressing round":    handMade(tb, "PGC2", 2, roundRecord(uv(0), uv(1), body(0)), roundRecord(uv(1), uv(0), body(1))),
		"regressing time":     handMade(tb, "PGC2", 2, roundRecord(uv(5), uv(0), body(0)), roundRecord(uv(4), uv(1), body(1))),
		"PGC1 version 1 file": handMade(tb, "PGC1", 1, container.AppendRecord(nil, 2, pgc1Packet)),
	}
}

// FuzzCaptureContainer feeds arbitrary bytes to the capture reader. The
// reader must either produce a capture or return an error — never panic,
// never over-allocate from a lying length header, never read past the
// buffer. Seeds cover the interesting structured mutations: truncations at
// every record boundary class, corrupted index offsets, flipped CRCs, and
// round records that break one rule each. A capture that loads decodes
// round by round and saves back to the same round bodies.
func FuzzCaptureContainer(f *testing.F) {
	for _, seed := range seeds(f) {
		f.Add(seed)
	}
	for _, file := range malformed(f) {
		f.Add(file)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Load(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly: that's the contract
		}
		_ = c.Duration()
		var rnd codec.Round
		for i := range c.Rounds {
			if err := c.DecodeRound(i, &rnd); err != nil {
				t.Fatalf("loaded round %d does not decode: %v", i, err)
			}
		}
		var out bytes.Buffer
		if err := c.Save(&out); err != nil {
			t.Fatalf("loaded capture does not save: %v", err)
		}
		back, err := Load(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("saved capture does not load: %v", err)
		}
		if len(back.Rounds) != len(c.Rounds) {
			t.Fatalf("saved %d rounds, loaded %d", len(c.Rounds), len(back.Rounds))
		}
		for i, r := range back.Rounds {
			if w := c.Rounds[i]; r.Round != w.Round || r.TS != w.TS || !bytes.Equal(r.Body, w.Body) {
				t.Fatalf("round %d changed across save and load", i)
			}
		}
		// The index fast path may reject files Load accepts only if the
		// trailing index is damaged — but it must not panic.
		_, _, _ = ReadIndex(bytes.NewReader(data))
	})
}

// seeds returns the structured mutations of a valid capture; the first is
// the valid capture itself.
func seeds(tb testing.TB) [][]byte {
	valid := fuzzSeed(tb)
	out := [][]byte{
		valid,
		{},
		[]byte("PGC2"),
		append([]byte("PGC2"), 0xFF),         // bad version
		append([]byte("NOPE"), valid[4:]...), // bad magic
		valid[:len(valid)-1],                 // cut footer
		valid[:len(valid)-footerLen],         // footer gone entirely
		valid[:len(valid)/2],                 // mid-record cut
		valid[:5],                            // header only
	}
	for _, off := range []uint64{0, 1, 1 << 40} { // corrupt index offsets
		b := append([]byte(nil), valid...)
		binary.BigEndian.PutUint64(b[len(b)-8:], off)
		out = append(out, b)
	}
	// huge claimed record length on a tiny file
	b := append(append([]byte(nil), valid[:5]...), byte(RecRound))
	out = append(out, append(binary.BigEndian.AppendUint32(b, 60<<20), 0, 0, 0, 0))
	// flip one byte inside a record body: CRC must catch it
	b = append([]byte(nil), valid...)
	b[len(b)/2] ^= 0x40
	return append(out, b)
}

// TestFuzzSeedsNonFuzzing replays the structured fuzz seeds as a plain test
// so `go test` (and make replay / make verify) exercises them without the
// fuzz engine.
func TestFuzzSeedsNonFuzzing(t *testing.T) {
	all := seeds(t)
	for i, seed := range all {
		c, err := Load(bytes.NewReader(seed))
		if i == 0 {
			if err != nil {
				t.Fatalf("valid seed rejected: %v", err)
			}
			continue
		}
		if err == nil {
			// Mutations may still parse if they only damaged the index
			// region in a recoverable way; what matters is no panic and a
			// traversable result.
			_ = c.Duration()
		}
	}
	// The flipped-byte seed specifically must be caught by a CRC.
	if _, err := Load(bytes.NewReader(all[len(all)-1])); err == nil {
		t.Fatal("bit flip inside a record body went undetected")
	}
	for name, file := range malformed(t) {
		_, err := Load(bytes.NewReader(file))
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: loaded with %v, want a corrupt-capture error", name, err)
		}
		if strings.HasPrefix(name, "PGC1") && (err == nil || !strings.Contains(err.Error(), `"PGC1" version 1`)) {
			t.Errorf("%s: error %v does not name the file's version", name, err)
		}
	}
}
