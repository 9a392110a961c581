package capture

import (
	"io"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/pipeline"
)

// Tap wraps a round source and records every round flowing through it into
// a capture — the pggate-side record hook: the engine ingests rounds
// exactly as before while the tap writes them (and, with the gate's Trace
// pointed at the same Writer, the decision trace) to disk.
type Tap struct {
	src   pipeline.SparseRoundSource
	w     *Writer
	clock Clock
	// step, when positive, stamps virtual timestamps (round·step) instead
	// of wall-clock arrival offsets: deterministic captures for corpora.
	step    time.Duration
	started bool
	start   time.Time
	round   int64
	dense   []*codec.Packet
}

// NewTap wraps src, recording into w. virtualStep > 0 selects deterministic
// virtual timestamps at that per-round interval; 0 records wall-clock
// arrival offsets. clock defaults to RealClock.
func NewTap(src pipeline.SparseRoundSource, w *Writer, virtualStep time.Duration, clock Clock) *Tap {
	if clock == nil {
		clock = RealClock
	}
	return &Tap{src: src, w: w, clock: clock, step: virtualStep}
}

// Rounds returns the number of rounds recorded so far.
func (t *Tap) Rounds() int64 { return t.round }

// NextRoundSparse implements pipeline.SparseRoundSource, recording each
// round as it forwards it.
func (t *Tap) NextRoundSparse() (*codec.Round, error) {
	r, err := t.src.NextRoundSparse()
	if err != nil {
		return nil, err
	}
	var ts time.Duration
	if t.step > 0 {
		ts = time.Duration(t.round) * t.step
	} else {
		if !t.started {
			t.start = t.clock.Now()
			t.started = true
		}
		ts = t.clock.Now().Sub(t.start)
	}
	if err := t.w.writeRound(ts, t.round, r); err != nil {
		return nil, err
	}
	t.round++
	return r, nil
}

// NextRound is the dense view of NextRoundSparse, for pipeline.RoundSource.
func (t *Tap) NextRound() ([]*codec.Packet, error) {
	r, err := t.NextRoundSparse()
	if err != nil {
		return nil, err
	}
	return r.Dense(&t.dense), nil
}

// Truth implements pipeline.RoundSource by delegation.
func (t *Tap) Truth(i int) (codec.Scene, bool) { return t.src.Truth(i) }

// RecordRounds drains src (a PGSP client's rounds) into the writer through a
// Tap, up to maxRounds (0 = until EOF), and returns the number of rounds
// recorded.
func RecordRounds(src pipeline.SparseRoundSource, w *Writer, maxRounds int64, virtualStep time.Duration, clock Clock) (int64, error) {
	t := NewTap(src, w, virtualStep, clock)
	for maxRounds == 0 || t.round < maxRounds {
		if _, err := t.NextRoundSparse(); err == io.EOF {
			break
		} else if err != nil {
			return t.round, err
		}
	}
	return t.round, nil
}
