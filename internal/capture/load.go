package capture

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/container"
	"packetgame/internal/stream"
	"packetgame/internal/trace"
)

// RecordedRound is one round of a loaded capture, as the wire carries it.
type RecordedRound struct {
	// Round is the recorded round index.
	Round int64
	// TS is the round's timestamp, its offset from capture start.
	TS time.Duration
	// Body is the round's PGSP round body; Capture.DecodeRound decodes it.
	Body []byte
}

// Capture is a fully loaded capture file. It holds round bodies, never
// decoded packets: a round is decoded when it is read.
type Capture struct {
	Meta      SessionMeta
	Rounds    []RecordedRound
	Decisions []trace.Round
	// Index is the trailing index, or nil when the capture was truncated
	// before its index was written (still loadable up to the cut).
	Index *Index

	infos []stream.StreamInfo // Meta.Streams, the width every body decodes at
}

// DecodeRound decodes round i into r, which is Reset to the session's
// width. The packets are fresh: stamped with their stream ids and codecs,
// and owning their payloads.
func (c *Capture) DecodeRound(i int, r *codec.Round) error {
	return stream.DecodeRoundBody(c.Rounds[i].Body, c.infos, r)
}

// Duration returns the time span of the loaded rounds.
func (c *Capture) Duration() time.Duration {
	if len(c.Rounds) == 0 {
		return 0
	}
	return c.Rounds[len(c.Rounds)-1].TS - c.Rounds[0].TS
}

// Load reads a whole capture into memory. Every round body is decoded once,
// into one recycled round, so a loaded capture holds only bodies that
// decode.
func Load(r io.Reader) (*Capture, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	meta, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	c := &Capture{Meta: meta}
	if c.infos, err = meta.Infos(); err != nil {
		return nil, corruptf("session header: %v", err)
	}
	var buf []byte
	var rnd codec.Round
	for {
		// A capture cut mid-write at a record boundary is still readable up
		// to its last intact record; Index records the loss by its absence.
		if _, err := br.Peek(1); err == io.EOF {
			return c, nil
		}
		kind, body, err := container.ReadRecord(br, maxRecordBody, buf)
		if err != nil {
			return nil, corruptf("record: %v", err)
		}
		buf = body
		switch RecordKind(kind) {
		case RecRound:
			if err := c.addRound(body, &rnd); err != nil {
				return nil, err
			}
		case RecTrace:
			var tr trace.Round
			if err := json.Unmarshal(body, &tr); err != nil {
				return nil, corruptf("trace record: %v", err)
			}
			c.Decisions = append(c.Decisions, tr)
		case RecIndex:
			if c.Index, err = parseIndex(body, len(c.infos)); err != nil {
				return nil, err
			}
			return c, readFooter(br)
		case RecSession:
			return nil, corruptf("duplicate session header")
		default:
			return nil, corruptf("unknown record kind %d", kind)
		}
	}
}

// addRound checks one round record — its place after the last round, and
// that its body decodes into scratch — and keeps a copy of its body.
func (c *Capture) addRound(rec []byte, scratch *codec.Round) error {
	ts, n := container.Uvarint(rec)
	if n <= 0 || ts > math.MaxInt64 {
		return corruptf("round record: bad timestamp")
	}
	round, k := container.Uvarint(rec[n:])
	if k <= 0 || round > math.MaxInt64 {
		return corruptf("round record: bad round index")
	}
	rr := RecordedRound{Round: int64(round), TS: time.Duration(ts), Body: rec[n+k:]}
	if last := len(c.Rounds) - 1; last >= 0 && (rr.Round <= c.Rounds[last].Round || rr.TS < c.Rounds[last].TS) {
		return corruptf("round %d at %v after round %d at %v", rr.Round, rr.TS, c.Rounds[last].Round, c.Rounds[last].TS)
	}
	if err := stream.DecodeRoundBody(rr.Body, c.infos, scratch); err != nil {
		return corruptf("round %d: %v", rr.Round, err)
	}
	rr.Body = bytes.Clone(rr.Body)
	c.Rounds = append(c.Rounds, rr)
	return nil
}

// LoadFile loads a capture from disk.
func LoadFile(path string) (*Capture, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// FilterWindow returns a copy of the capture restricted to the half-open
// capture-time window [w.From, w.To): a round survives iff its timestamp
// satisfies w.Contains, exactly at the boundaries. When rebase is true the
// surviving timestamps are shifted so the earliest becomes zero and rounds
// renumber from zero. The copy shares the capture's round bodies.
//
// The decision trace is NOT carried over: recorded decisions are only valid
// against the full recorded workload (budget competition spans all streams
// and rounds), so a filtered capture is a packet corpus, not an auditable
// session.
func (c *Capture) FilterWindow(w Window, rebase bool) *Capture {
	out := &Capture{Meta: c.Meta, infos: c.infos}
	out.Meta.Gate = nil // decisions dropped: the gate config no longer attests anything
	for _, r := range c.Rounds {
		if w.Contains(r.TS) {
			out.Rounds = append(out.Rounds, r)
		}
	}
	if rebase && len(out.Rounds) > 0 {
		base, baseRound := out.Rounds[0].TS, out.Rounds[0].Round
		for i := range out.Rounds {
			out.Rounds[i].TS -= base
			out.Rounds[i].Round -= baseRound
		}
	}
	return out
}

// FilterStreams returns a copy keeping only the given stream slots (others
// become idle): each round is decoded, and the kept packets re-encoded into
// a new body; rounds left with no packets are dropped. Slot numbering is
// preserved so packets keep their stream identity; the decision trace is
// dropped for the same reason as in FilterWindow.
func (c *Capture) FilterStreams(keep []int) (*Capture, error) {
	sel := make([]bool, len(c.Meta.Streams))
	for _, i := range keep {
		if i < 0 || i >= len(sel) {
			return nil, fmt.Errorf("capture: stream %d out of range (capture has %d)", i, len(sel))
		}
		sel[i] = true
	}
	out := &Capture{Meta: c.Meta, infos: c.infos}
	out.Meta.Gate = nil
	var rnd, kept codec.Round
	var enc stream.RoundEncoder
	for i, r := range c.Rounds {
		if err := c.DecodeRound(i, &rnd); err != nil {
			return nil, err
		}
		kept.Reset(rnd.M)
		for k, id := range rnd.IDs {
			if sel[id] {
				kept.Append(id, rnd.Pkts[k])
			}
		}
		if kept.Len() > 0 {
			r.Body = enc.AppendBody(nil, &kept)
			out.Rounds = append(out.Rounds, r)
		}
	}
	return out, nil
}

// Save writes the capture back out as a PGC file (used by the filter verb).
// Decision traces survive a plain save (no filtering applied since load).
func (c *Capture) Save(w io.Writer) error {
	cw, err := NewWriter(w, c.Meta)
	if err != nil {
		return err
	}
	// Interleave decisions at their recorded positions: decision k follows
	// the k-th round, mirroring a sequential recording.
	var rnd codec.Round
	for i, r := range c.Rounds {
		if err := c.DecodeRound(i, &rnd); err != nil {
			return err
		}
		if err := cw.writeRound(r.TS, r.Round, &rnd); err != nil {
			return err
		}
		if i < len(c.Decisions) {
			if err := cw.WriteDecision(c.Decisions[i]); err != nil {
				return err
			}
		}
	}
	for d := len(c.Rounds); d < len(c.Decisions); d++ {
		if err := cw.WriteDecision(c.Decisions[d]); err != nil {
			return err
		}
	}
	return cw.Close()
}
