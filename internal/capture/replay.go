package capture

import (
	"fmt"
	"io"
	"math"
	"time"

	"packetgame/internal/codec"
)

// Clock abstracts wall time so replay timing is testable against a virtual
// clock (and so the timing property tests are exact, not flaky).
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// RealClock is the wall-clock Clock.
var RealClock Clock = realClock{}

// VirtualClock is a deterministic Clock that jumps instantly on Sleep —
// replay schedules become exact arithmetic over it. The zero value starts
// at the zero time.
type VirtualClock struct {
	T time.Time
}

// Now returns the virtual time.
func (c *VirtualClock) Now() time.Time { return c.T }

// Sleep advances the virtual time (negative durations are ignored, matching
// time.Sleep).
func (c *VirtualClock) Sleep(d time.Duration) {
	if d > 0 {
		c.T = c.T.Add(d)
	}
}

// Window selects the half-open capture-time interval [From, To). To <= 0
// leaves the window open-ended; From == To (positive) is the empty window.
type Window struct {
	From, To time.Duration
}

// Contains reports whether a capture timestamp falls inside the window.
// Boundary semantics are exact: ts == From is in, ts == To is out.
func (w Window) Contains(ts time.Duration) bool {
	if ts < w.From {
		return false
	}
	if w.To > 0 && ts >= w.To {
		return false
	}
	return true
}

// ReplayOptions parameterizes a timed replay.
type ReplayOptions struct {
	// Speedup scales recorded time: 2 halves every inter-round gap, 0.5
	// doubles them. 0 defaults to 1 (original timing).
	Speedup float64
	// Window restricts the replay to a capture-time interval.
	Window Window
	// Flat replaces the recorded schedule with a uniform one at the same
	// average round rate — the tcpreplay-style control that demonstrably
	// flattens recorded bursts (the reason this package exists).
	Flat bool
	// Clock defaults to RealClock.
	Clock Clock
}

func (o ReplayOptions) withDefaults() (ReplayOptions, error) {
	if o.Speedup == 0 {
		o.Speedup = 1
	}
	if o.Speedup < 0 || math.IsNaN(o.Speedup) || math.IsInf(o.Speedup, 0) {
		return o, fmt.Errorf("capture: speedup %v is not a positive finite number", o.Speedup)
	}
	if o.Clock == nil {
		o.Clock = RealClock
	}
	return o, nil
}

// schedule returns the rounds to replay — the capture, or its copy cut to
// the window — and each round's emission offset from replay start,
// honoring speedup and the flat-rate control.
func schedule(c *Capture, o ReplayOptions) (*Capture, []time.Duration) {
	if o.Window != (Window{}) {
		c = c.FilterWindow(o.Window, false)
	}
	rounds := c.Rounds
	if len(rounds) == 0 {
		return c, nil
	}
	due := make([]time.Duration, len(rounds))
	base := rounds[0].TS
	if o.Flat {
		// Uniform gaps at the capture's average round rate over the same
		// (speedup-scaled) span.
		span := rounds[len(rounds)-1].TS - base
		gap := time.Duration(0)
		if len(rounds) > 1 {
			gap = time.Duration(float64(span) / float64(len(rounds)-1) / o.Speedup)
		}
		for i := range due {
			due[i] = time.Duration(i) * gap
		}
	} else {
		for i, r := range rounds {
			due[i] = time.Duration(float64(r.TS-base) / o.Speedup)
		}
	}
	return c, due
}

// TimedSource replays a loaded capture's rounds at their recorded times —
// scaled by Speedup, restricted by Window, or flattened by Flat — blocking
// in NextRoundSparse until each round is due, then decoding it. It is a
// pipeline.SparseRoundSource, so a capture can drive the exact ingest path
// a live PGSP session does.
type TimedSource struct {
	c     *Capture // the rounds to replay
	due   []time.Duration
	clock Clock
	start time.Time
	i     int
	round codec.Round
	dense []*codec.Packet
	// Emitted records each round's actual emission offset from replay
	// start (clock time), for timing verification.
	emitted []time.Duration
}

// NewTimedSource builds a timed replay source over a loaded capture.
func NewTimedSource(c *Capture, opts ReplayOptions) (*TimedSource, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	c, due := schedule(c, opts)
	return &TimedSource{c: c, due: due, clock: opts.Clock}, nil
}

// Rounds returns the number of rounds the replay will emit.
func (s *TimedSource) Rounds() int { return len(s.due) }

// Emitted returns the per-round emission offsets observed so far.
func (s *TimedSource) Emitted() []time.Duration { return s.emitted }

// NextRoundSparse implements pipeline.SparseRoundSource: it sleeps until
// the next round is due, then returns it decoded, valid until the next
// call.
func (s *TimedSource) NextRoundSparse() (*codec.Round, error) {
	if s.i >= len(s.due) {
		return nil, io.EOF
	}
	if s.i == 0 {
		s.start = s.clock.Now()
	}
	target := s.start.Add(s.due[s.i])
	if d := target.Sub(s.clock.Now()); d > 0 {
		s.clock.Sleep(d)
	}
	s.emitted = append(s.emitted, s.clock.Now().Sub(s.start))
	if err := s.c.DecodeRound(s.i, &s.round); err != nil {
		return nil, err
	}
	s.i++
	return &s.round, nil
}

// NextRound is the dense view of NextRoundSparse, for pipeline.RoundSource.
func (s *TimedSource) NextRound() ([]*codec.Packet, error) {
	r, err := s.NextRoundSparse()
	if err != nil {
		return nil, err
	}
	return r.Dense(&s.dense), nil
}

// Truth implements pipeline.RoundSource: captures carry no side-channel
// ground truth.
func (s *TimedSource) Truth(i int) (codec.Scene, bool) { return codec.Scene{}, false }
