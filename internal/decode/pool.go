package decode

import (
	"errors"
	"sync"
	"sync/atomic"

	"packetgame/internal/codec"
)

// ErrAborted is the completion error of a job whose round was abandoned
// (deadline abort) before a worker picked the job up. The packet was never
// decoded — the outcome is unknown, not a decoder failure.
var ErrAborted = errors.New("decode: job aborted before decoding")

// Job is one tagged decode request: the packet plus its position in the
// round it belongs to, so completions can be reassembled per round even
// when the pool finishes them out of order.
type Job struct {
	Round int64
	Slot  int // index into the round's selection, not the stream ID
	Pkt   *codec.Packet
	// Cancel, when non-nil and set, short-circuits the job: a worker that
	// dequeues it emits an ErrAborted completion without decoding. A job
	// already being decoded runs to completion (the decoder API is
	// synchronous); cancellation only sheds queued work.
	Cancel *atomic.Bool
}

// Completion is the outcome of one Job. Exactly one Completion is emitted
// per submitted Job; Err is non-nil when the decode failed (Frame is then
// zero).
type Completion struct {
	Round int64
	Slot  int
	Frame Frame
	Err   error
}

// TaggedPool decodes tagged jobs on a fixed set of worker goroutines,
// modelling a multi-core software decoder, and reports every completion —
// success or failure — on a single channel. It is the pipeline engine's
// decode stage: nothing is dropped, so the collector downstream can account
// for every packet of every in-flight round and ack rounds in order.
type TaggedPool struct {
	in      chan Job
	out     chan Completion
	wg      sync.WaitGroup
	decoder interface {
		Decode(*codec.Packet) (Frame, error)
	}
}

// NewTaggedPool starts workers goroutines decoding via d.
func NewTaggedPool(d interface {
	Decode(*codec.Packet) (Frame, error)
}, workers int) *TaggedPool {
	if workers < 1 {
		workers = 1
	}
	p := &TaggedPool{
		in:      make(chan Job, workers*2),
		out:     make(chan Completion, workers*2),
		decoder: d,
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	go func() {
		p.wg.Wait()
		close(p.out)
	}()
	return p
}

func (p *TaggedPool) worker() {
	defer p.wg.Done()
	for j := range p.in {
		if j.Cancel != nil && j.Cancel.Load() {
			p.out <- Completion{Round: j.Round, Slot: j.Slot, Err: ErrAborted}
			continue
		}
		f, err := p.decoder.Decode(j.Pkt)
		p.out <- Completion{Round: j.Round, Slot: j.Slot, Frame: f, Err: err}
	}
}

// Submit queues a job. It must not be called after Close.
func (p *TaggedPool) Submit(j Job) { p.in <- j }

// Completions returns the completion channel. It closes once Close has been
// called and all in-flight jobs have drained.
func (p *TaggedPool) Completions() <-chan Completion { return p.out }

// Close stops accepting work.
func (p *TaggedPool) Close() { close(p.in) }
