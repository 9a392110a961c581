package capture

import (
	"bytes"
	"io"
	"math"
	"testing"
	"time"

	"packetgame/internal/codec"
)

// buildCapture makes an in-memory capture with one stream and the given
// round timestamps.
func buildCapture(t *testing.T, ts []time.Duration) *Capture {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMeta(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	writeRounds(t, w, 1, ts)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// drain runs a TimedSource to EOF and returns its emission offsets.
func drain(t *testing.T, s *TimedSource) []time.Duration {
	t.Helper()
	for {
		_, err := s.NextRound()
		if err == io.EOF {
			return s.Emitted()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplaySpeedupPreservesGapRatios is the timing property test: replaying
// a bursty schedule at speedup k must reproduce every recorded inter-round
// gap scaled by exactly 1/k — on the virtual clock this is exact arithmetic,
// so the tolerance only absorbs the integer-nanosecond division.
func TestReplaySpeedupPreservesGapRatios(t *testing.T) {
	// Bursty recording: three tight bursts separated by long idle gaps.
	var ts []time.Duration
	at := time.Duration(0)
	for burst := 0; burst < 3; burst++ {
		for i := 0; i < 5; i++ {
			ts = append(ts, at)
			at += 40 * time.Millisecond
		}
		at += 2 * time.Second
	}
	c := buildCapture(t, ts)
	for _, speedup := range []float64{0.5, 1, 2, 7.5} {
		clock := &VirtualClock{}
		src, err := NewTimedSource(c, ReplayOptions{Speedup: speedup, Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		emitted := drain(t, src)
		if len(emitted) != len(ts) {
			t.Fatalf("speedup %v: emitted %d rounds, want %d", speedup, len(emitted), len(ts))
		}
		for i := 1; i < len(ts); i++ {
			recGap := ts[i] - ts[i-1]
			gotGap := emitted[i] - emitted[i-1]
			want := float64(recGap) / speedup
			if math.Abs(float64(gotGap)-want) > 1 { // ≤1ns integer division slack
				t.Fatalf("speedup %v: gap %d = %v, want %v (recorded %v)",
					speedup, i, gotGap, time.Duration(want), recGap)
			}
		}
	}
}

// TestReplayFlatFlattensBursts checks the control arm: flat replay spends
// the same total span but equalizes every gap, destroying the recorded
// burst structure (max gap over mean gap collapses to 1).
func TestReplayFlatFlattensBursts(t *testing.T) {
	ts := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond,
		2 * time.Second, 2010 * time.Millisecond, 2020 * time.Millisecond}
	c := buildCapture(t, ts)

	clock := &VirtualClock{}
	src, err := NewTimedSource(c, ReplayOptions{Flat: true, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	emitted := drain(t, src)
	span := emitted[len(emitted)-1] - emitted[0]
	if span != ts[len(ts)-1]-ts[0] {
		t.Fatalf("flat replay span %v, want %v", span, ts[len(ts)-1]-ts[0])
	}
	var maxGap, minGap time.Duration = 0, time.Hour
	for i := 1; i < len(emitted); i++ {
		g := emitted[i] - emitted[i-1]
		if g > maxGap {
			maxGap = g
		}
		if g < minGap {
			minGap = g
		}
	}
	if maxGap-minGap > 1 {
		t.Fatalf("flat replay gaps not uniform: min %v max %v", minGap, maxGap)
	}
	// And the recorded schedule really was bursty — otherwise this control
	// proves nothing.
	if burstiness(ts) < 4 {
		t.Fatalf("test schedule not bursty enough: %v", burstiness(ts))
	}
	if b := burstiness(emitted); b > 1.01 {
		t.Fatalf("flat replay still bursty: max/mean gap = %v", b)
	}
}

// burstiness is max inter-round gap over mean gap (1 = perfectly uniform).
func burstiness(ts []time.Duration) float64 {
	if len(ts) < 2 {
		return 1
	}
	var maxGap time.Duration
	for i := 1; i < len(ts); i++ {
		if g := ts[i] - ts[i-1]; g > maxGap {
			maxGap = g
		}
	}
	mean := float64(ts[len(ts)-1]-ts[0]) / float64(len(ts)-1)
	return float64(maxGap) / mean
}

// TestReplayWindowing is the table-driven boundary test for window
// filtering: half-open [From, To), exact at edges, with the degenerate
// shapes called out in the issue.
func TestReplayWindowing(t *testing.T) {
	ts := []time.Duration{0, time.Second, 2 * time.Second, 3 * time.Second}
	c := buildCapture(t, ts)
	cases := []struct {
		name string
		w    Window
		want []time.Duration
	}{
		{"open", Window{}, ts},
		{"half-open upper edge", Window{From: 0, To: 2 * time.Second}, ts[:2]},
		{"inclusive lower edge", Window{From: time.Second, To: 3 * time.Second}, ts[1:3]},
		{"single packet", Window{From: time.Second, To: time.Second + time.Nanosecond}, ts[1:2]},
		{"empty window", Window{From: time.Second, To: time.Second}, nil},
		{"window past EOF", Window{From: time.Minute, To: 2 * time.Minute}, nil},
		{"tail open-ended", Window{From: 2 * time.Second}, ts[2:]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := &VirtualClock{}
			src, err := NewTimedSource(c, ReplayOptions{Window: tc.w, Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			if src.Rounds() != len(tc.want) {
				t.Fatalf("window %+v kept %d rounds, want %d", tc.w, src.Rounds(), len(tc.want))
			}
			var got []*codec.Packet
			for {
				pkts, err := src.NextRound()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, pkts...)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("emitted %d packets, want %d", len(got), len(tc.want))
			}
		})
	}
}

// TestReplayRejectsNegativeSpeedup: a speedup that is not a positive
// finite number would drop the recorded timing (NaN schedules every round
// at math.MinInt64, +Inf every round at 0), so it is refused.
func TestReplayRejectsNegativeSpeedup(t *testing.T) {
	c := buildCapture(t, []time.Duration{0, time.Second})
	for _, speedup := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := NewTimedSource(c, ReplayOptions{Speedup: speedup}); err == nil {
			t.Errorf("speedup %v accepted", speedup)
		}
	}
}
