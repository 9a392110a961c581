package decode

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"packetgame/internal/codec"
)

// Frame is one decoded video frame: the recovered scene plus identity.
type Frame struct {
	StreamID int
	Seq      int64
	PTS      int64
	Scene    codec.Scene
}

// ErrNoPayload reports an attempt to decode a packet whose payload was
// dropped (e.g. a gating-only parse with KeepPayload=false).
var ErrNoPayload = errors.New("decode: packet has no payload")

// Decoder turns packets into frames and accounts decode cost.
type Decoder struct {
	cm CostModel

	mu     sync.Mutex
	frames int64
	cost   float64
}

// NewDecoder creates a decoder with the given cost model.
func NewDecoder(cm CostModel) *Decoder { return &Decoder{cm: cm} }

// Decode recovers the frame carried by p. It is safe for concurrent use.
func (d *Decoder) Decode(p *codec.Packet) (Frame, error) {
	if len(p.Payload) == 0 {
		return Frame{}, fmt.Errorf("%w: stream %d seq %d", ErrNoPayload, p.StreamID, p.Seq)
	}
	s, err := codec.DecodePayload(p.Payload)
	if err != nil {
		return Frame{}, err
	}
	d.mu.Lock()
	d.frames++
	d.cost += d.cm.Of(p.Type)
	d.mu.Unlock()
	return Frame{StreamID: p.StreamID, Seq: p.Seq, PTS: p.PTS, Scene: s}, nil
}

// Stats returns the number of frames decoded and the total cost spent.
func (d *Decoder) Stats() (frames int64, cost float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.frames, d.cost
}

// BurnDecoder wraps a Decoder and additionally burns CPU proportional to the
// decode cost, so wall-clock throughput benchmarks (Fig 2) reflect the
// heterogeneous cost model. NanosPerUnit calibrates one decode unit; the
// paper's 12-CPU software decoder sustains 870 P-frame-equivalents per
// second, i.e. ~13.8ms per unit per core at 12 cores.
type BurnDecoder struct {
	*Decoder
	// NanosPerUnit is the CPU time burned per decode-cost unit.
	NanosPerUnit int64
}

// NewBurnDecoder creates a burning decoder.
func NewBurnDecoder(cm CostModel, nanosPerUnit int64) *BurnDecoder {
	return &BurnDecoder{Decoder: NewDecoder(cm), NanosPerUnit: nanosPerUnit}
}

// sink defeats dead-code elimination of the burn loop. Atomic because pool
// workers burn concurrently.
var sink atomic.Uint64

// Decode decodes p, burning CPU proportional to its cost.
func (b *BurnDecoder) Decode(p *codec.Packet) (Frame, error) {
	f, err := b.Decoder.Decode(p)
	if err != nil {
		return f, err
	}
	burn(int64(b.cm.Of(p.Type) * float64(b.NanosPerUnit)))
	return f, nil
}

// LatencyDecoder wraps a Decoder and additionally sleeps wall-clock time
// proportional to the decode cost, modelling decode offloaded to dedicated
// hardware (GPU/ASIC decode sessions): each request occupies a session for
// its service time but burns no host CPU. Unlike BurnDecoder, concurrent
// decodes overlap even on a single host core, so it is the right model for
// measuring pipeline overlap on machines with few cores.
type LatencyDecoder struct {
	*Decoder
	// NanosPerUnit is the wall-clock service time per decode-cost unit.
	NanosPerUnit int64
}

// NewLatencyDecoder creates a fixed-service-time decoder.
func NewLatencyDecoder(cm CostModel, nanosPerUnit int64) *LatencyDecoder {
	return &LatencyDecoder{Decoder: NewDecoder(cm), NanosPerUnit: nanosPerUnit}
}

// Decode decodes p, holding a decode session for cost-proportional time.
func (l *LatencyDecoder) Decode(p *codec.Packet) (Frame, error) {
	f, err := l.Decoder.Decode(p)
	if err != nil {
		return f, err
	}
	time.Sleep(time.Duration(l.cm.Of(p.Type) * float64(l.NanosPerUnit)))
	return f, nil
}

// burn busy-loops for approximately the given CPU nanoseconds. It uses a
// fixed work constant (~1ns per iteration on contemporary cores) rather than
// wall-clock polling so that concurrent decoders contend for CPU exactly like
// a real software decoder would.
func burn(nanos int64) {
	x := sink.Load()
	for i := int64(0); i < nanos; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	sink.Store(x)
}
