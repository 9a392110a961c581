package container

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// fuzzLimit is the body bound the fuzzed readers run under: PGCP's, so a
// hostile length inside it is only a claim and ReadBody's rule is all that
// stands between the claim and an allocation.
const fuzzLimit = 256 << 20

// FuzzRecord holds the streaming and in-memory record readers to each other
// over arbitrary bytes, record by record: ReadRecord and NextRecord agree on
// every kind and body or both fail, ReadRecord into a dirty recycled buffer
// reads what it reads into fresh memory, a clean end is io.EOF, and what the
// readers allocate is bounded by what arrived, whatever a header claims.
func FuzzRecord(f *testing.F) {
	a := AppendRecord(nil, 1, []byte("session"))
	two := AppendRecord(append([]byte(nil), a...), 2, bytes.Repeat([]byte{7}, 300))
	// flip returns a copy of b with byte i xored by mask.
	flip := func(b []byte, i int, mask byte) []byte {
		b = append([]byte(nil), b...)
		b[i] ^= mask
		return b
	}
	// claim returns a copy of a whose header claims an n-byte body.
	claim := func(n uint32) []byte {
		b := append([]byte(nil), a...)
		binary.BigEndian.PutUint32(b[1:], n)
		return b
	}
	f.Add(two)
	f.Add(AppendRecord(nil, 3, nil)) // an empty body
	f.Add([]byte{})
	f.Add(two[:5])                      // cut inside the first header
	f.Add(two[:len(a)+4])               // cut inside the second header
	f.Add(two[:len(two)-1])             // cut inside the last body
	f.Add(two[:len(a)+recordHeaderLen]) // a header with nothing behind it
	f.Add(flip(two, len(a)-1, 0x01))    // a body bit
	f.Add(flip(two, 6, 0x80))           // a CRC bit
	f.Add(claim(200 << 20))             // a claim inside the limit
	f.Add(claim(fuzzLimit + 1))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		fresh := bufio.NewReader(bytes.NewReader(data))
		dirty := bufio.NewReader(bytes.NewReader(data))
		stale := bytes.Repeat([]byte{0xA5}, 512) // an earlier body's leftovers
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for rest := data; ; {
			fk, fbody, ferr := ReadRecord(fresh, fuzzLimit, nil)
			dk, dbody, derr := ReadRecord(dirty, fuzzLimit, stale)
			if (ferr == nil) != (derr == nil) || fk != dk || !bytes.Equal(fbody, dbody) {
				t.Fatalf("fresh read kind %d, %d bytes, %v; dirty read kind %d, %d bytes, %v", fk, len(fbody), ferr, dk, len(dbody), derr)
			}
			if ferr != nil && (fbody != nil || dbody != nil) {
				t.Fatalf("failed read surfaced a body: %v", ferr)
			}
			if len(rest) == 0 {
				if ferr != io.EOF {
					t.Fatalf("clean end read as %v", ferr)
				}
				break
			}
			kind, body, next, err := NextRecord(rest, fuzzLimit)
			if (err == nil) != (ferr == nil) {
				t.Fatalf("NextRecord: %v; ReadRecord: %v", err, ferr)
			}
			if err != nil {
				if len(next) != len(rest) {
					t.Fatalf("rejected record consumed %d bytes", len(rest)-len(next))
				}
				break
			}
			if kind != fk || !bytes.Equal(body, fbody) {
				t.Fatalf("NextRecord kind %d, %d bytes; ReadRecord kind %d, %d bytes", kind, len(body), fk, len(fbody))
			}
			rest, stale = next, dbody
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*uint64(len(data))+3*bodyGrowStep {
			t.Fatalf("readers allocated %d bytes for %d that arrived", grew, len(data))
		}
	})
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

// TestReadRecordZeroAlloc: once its buffer has grown to the largest body, a
// reader that keeps each returned body as its next buffer reads records of
// any size up to that one without allocating.
func TestReadRecordZeroAlloc(t *testing.T) {
	var wire []byte
	for k, n := range []int{96, 4096, 0, 40 << 10, 700} {
		wire = AppendRecord(wire, uint8(k+1), bytes.Repeat([]byte{byte(k)}, n))
	}
	br := bufio.NewReaderSize(&cycle{wire: wire}, 64<<10)
	var buf []byte
	round := func() {
		for k := range 5 {
			kind, body, err := ReadRecord(br, 1<<20, buf)
			if err != nil || kind != uint8(k+1) {
				t.Fatalf("record %d: kind %d, %v", k, kind, err)
			}
			buf = body
		}
	}
	round()
	if avg := testing.AllocsPerRun(50, round); avg != 0 {
		t.Fatalf("ReadRecord allocates %.1f objects per five records", avg)
	}
}

// TestReadRecordEnds pins where a stream may end: before a record is a clean
// io.EOF; inside a header, or inside a body after its first byte, is
// io.ErrUnexpectedEOF; right after a header is io.EOF, as a peer that hangs
// up there reads on a connection.
func TestReadRecordEnds(t *testing.T) {
	rec := AppendRecord(nil, 4, []byte("body bytes"))
	for _, tc := range []struct {
		cut  int
		want error
	}{{0, io.EOF}, {4, io.ErrUnexpectedEOF}, {recordHeaderLen, io.EOF}, {recordHeaderLen + 3, io.ErrUnexpectedEOF}} {
		_, body, err := ReadRecord(bufio.NewReader(bytes.NewReader(rec[:tc.cut])), 1<<10, nil)
		if err != tc.want || body != nil {
			t.Errorf("cut at %d: %d bytes, %v; want %v", tc.cut, len(body), err, tc.want)
		}
	}
	kind, body, err := ReadRecord(bufio.NewReader(bytes.NewReader(rec)), 1<<10, nil)
	if err != nil || kind != 4 || string(body) != "body bytes" {
		t.Fatalf("intact record: kind %d, %q, %v", kind, body, err)
	}
	var out bytes.Buffer
	bw := bufio.NewWriter(&out)
	if n, err := WriteRecord(bw, 4, []byte("body bytes")); err != nil || n != len(rec) || bw.Flush() != nil || !bytes.Equal(out.Bytes(), rec) {
		t.Fatalf("WriteRecord wrote %x (%d bytes), AppendRecord %x (%v)", out.Bytes(), n, rec, err)
	}
}

// TestOneRecordCodec keeps the record layer in one place: outside this
// package no non-test Go file declares a body reader or a record-header
// length, imports hash/crc32 (PGSP's own 20-byte header in
// internal/stream/frame.go excepted), and internal/cluster does not reach
// into internal/capture for its framing.
func TestOneRecordCodec(t *testing.T) {
	root := filepath.Join("..", "..")
	bodyReader := regexp.MustCompile(`(?i)func\s+(\([^)]*\)\s*)?readbody\s*\(`)
	headerLen := regexp.MustCompile(`(?i)\brec(ord)?_?header_?len\b|\[9\]byte`)
	crcAllowed := filepath.Join("internal", "stream", "frame.go")
	checked := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || rel == filepath.Join("internal", "container")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		checked++
		for n, line := range strings.Split(string(src), "\n") {
			if i := strings.Index(line, "//"); i >= 0 {
				line = line[:i]
			}
			switch {
			case bodyReader.MatchString(line):
				t.Errorf("%s:%d: a body reader of its own: use container.ReadBody", rel, n+1)
			case headerLen.MatchString(line):
				t.Errorf("%s:%d: a record header of its own: use the container record functions", rel, n+1)
			case strings.Contains(line, `"hash/crc32"`) && rel != crcAllowed:
				t.Errorf("%s:%d: imports hash/crc32: frame records through internal/container", rel, n+1)
			case strings.Contains(line, `"packetgame/internal/capture"`) && filepath.Dir(rel) == filepath.Join("internal", "cluster"):
				t.Errorf("%s:%d: internal/cluster imports internal/capture", rel, n+1)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 50 {
		t.Fatalf("checked %d files: the walk did not reach the module", checked)
	}
}
