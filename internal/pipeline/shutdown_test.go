package pipeline

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/decode"
	"packetgame/internal/infer"
)

// waitGoroutines polls until the goroutine count returns to within slack of
// base (worker pools need a moment to observe channel closes).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCloseDrainsPipelinedEngine is the shutdown-leak regression test: Close
// while rounds are still decoding must drain the collector, join the decode
// pool, and leave no goroutines behind.
func TestCloseDrainsPipelinedEngine(t *testing.T) {
	base := runtime.NumGoroutine()
	const m, workers, k = 16, 6, 4
	g, err := core.NewGate(core.Config{Streams: m, Budget: 12, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	var once bool
	eng, err := New(Config{
		Source:              NewLocalSource(mkFleet(m, 7), 0), // unlimited: only Close ends the run
		Gate:                g,
		Task:                infer.PersonCounting{},
		Workers:             workers,
		MaxInFlight:         k,
		Pipelined:           true,
		LatencyNanosPerUnit: 200_000, // slow decodes keep rounds in flight
		OnRound: func(round int64, sel []int) {
			if !once && round >= 2 {
				once = true
				close(started)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		rep Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := eng.Run(0)
		done <- result{rep, err}
	}()
	<-started // several rounds decided, decodes in flight
	eng.Close()
	res := <-done
	if res.err != nil {
		t.Fatalf("closed run returned error: %v", res.err)
	}
	if res.rep.Rounds < 2 {
		t.Fatalf("partial report lost settled rounds: %+v", res.rep)
	}
	if g.Pending() != 0 {
		t.Fatalf("gate left with %d unacked rounds after Close", g.Pending())
	}
	waitGoroutines(t, base)
}

// TestCloseStopsSequentialEngine covers overlap off: Close between rounds
// ends the run with all pending feedback flushed.
func TestCloseStopsSequentialEngine(t *testing.T) {
	base := runtime.NumGoroutine()
	const m = 8
	g, err := core.NewGate(core.Config{Streams: m, Budget: 8, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	var eng *Engine
	eng, err = New(Config{
		Source:      NewLocalSource(mkFleet(m, 11), 0),
		Gate:        g,
		Task:        infer.PersonCounting{},
		MaxInFlight: 2,
		OnRound: func(round int64, sel []int) {
			if round == 5 {
				eng.Close()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds < 5 {
		t.Fatalf("rounds = %d, want ≥ 5", rep.Rounds)
	}
	if g.Pending() != 0 {
		t.Fatalf("gate left with %d unacked rounds", g.Pending())
	}
	waitGoroutines(t, base)
}

// failEvery wraps a decoder, failing every packet of the victim stream.
type failEvery struct {
	inner  decode.PacketDecoder
	victim int
}

func (f *failEvery) Decode(p *codec.Packet) (decode.Frame, error) {
	if p.StreamID == f.victim {
		return decode.Frame{}, errors.New("wedged decoder")
	}
	return f.inner.Decode(p)
}

// TestPoisonPillDoesNotWedgePipeline runs both overlap modes against a decoder
// that always fails one stream: the run must complete every round, account
// the failures, and ack every round to the gate.
func TestPoisonPillDoesNotWedgePipeline(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		const m, rounds = 8, 40
		g, err := core.NewGate(core.Config{Streams: m, Budget: 40, UseTemporal: true})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(Config{
			Source:      NewLocalSource(mkFleet(m, 23), rounds),
			Gate:        g,
			Task:        infer.PersonCounting{},
			Pipelined:   pipelined,
			MaxInFlight: 3,
			Retry:       decode.RetryPolicy{MaxRetries: 1, Backoff: time.Microsecond},
			WrapDecoder: func(d decode.PacketDecoder) decode.PacketDecoder {
				return &failEvery{inner: d, victim: 0}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Run(0)
		if err != nil {
			t.Fatalf("pipelined=%v: %v", pipelined, err)
		}
		if rep.Rounds != rounds {
			t.Fatalf("pipelined=%v: completed %d/%d rounds", pipelined, rep.Rounds, rounds)
		}
		if rep.DecodeFailed == 0 {
			t.Fatalf("pipelined=%v: victim stream failures not accounted: %+v", pipelined, rep)
		}
		if g.Pending() != 0 {
			t.Fatalf("pipelined=%v: %d unacked rounds", pipelined, g.Pending())
		}
	}
}

// TestBreakerQuarantinesPoisonPillStream is the end-to-end fault loop: with
// breakers armed, the wedged stream's failures open its breaker and the
// engine stops selecting it, so failures stop accumulating.
func TestBreakerQuarantinesPoisonPillStream(t *testing.T) {
	const m, rounds = 8, 120
	g, err := core.NewGate(core.Config{Streams: m, Budget: 40, UseTemporal: true,
		Breaker: &core.BreakerConfig{FailureThreshold: 3, Cooldown: 1 << 20, GapThreshold: -1}})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{
		Source:    NewLocalSource(mkFleet(m, 29), rounds),
		Gate:      g,
		Task:      infer.PersonCounting{},
		Pipelined: true,
		WrapDecoder: func(d decode.PacketDecoder) decode.PacketDecoder {
			return &failEvery{inner: d, victim: 0}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != rounds {
		t.Fatalf("completed %d/%d rounds", rep.Rounds, rounds)
	}
	snap := g.Breakers()[0]
	if snap.State != core.BreakerOpen {
		t.Fatalf("victim breaker = %+v, want open", snap)
	}
	// Once open (after FailureThreshold fails), the stream is out of the
	// selection: failures stop near the threshold instead of growing with
	// the round count.
	if rep.DecodeFailed > 6 {
		t.Fatalf("quarantine did not stop the bleeding: %d decode failures", rep.DecodeFailed)
	}
	if snap.QuarantinedRounds < int64(rounds)/2 {
		t.Fatalf("victim quarantined for only %d of %d rounds", snap.QuarantinedRounds, rounds)
	}
}
