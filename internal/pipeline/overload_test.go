package pipeline

import (
	"runtime"
	"testing"
	"time"

	"packetgame/internal/core"
	"packetgame/internal/infer"
	"packetgame/internal/metrics"
	"packetgame/internal/overload"
)

func TestDeadlineValidation(t *testing.T) {
	const m = 4
	if _, err := New(Config{
		Source: NewLocalSource(mkFleet(m, 1), 10),
		Gate:   mkGate(t, m, 4),
		Task:   infer.PersonCounting{},
		// Deadline without Pipelined: without overlap a round has no decode
		// queue to shed, so a deadline is a configuration error.
		Deadline: 10 * time.Millisecond,
	}); err == nil {
		t.Error("Deadline without Pipelined must error")
	}
	if _, err := New(Config{
		Source:    NewLocalSource(mkFleet(m, 1), 10),
		Gate:      mkGate(t, m, 4),
		Task:      infer.PersonCounting{},
		Pipelined: true,
		Deadline:  -time.Millisecond,
	}); err == nil {
		t.Error("negative Deadline must error")
	}
}

// TestDeadlineAbortSettlesRounds drives the pipelined engine with decodes
// far slower than the round deadline: every round must still settle and ack
// (the run never wedges on abandoned work), aborted selections must be
// accounted as DeadlineAborted rather than Decoded, and the decode pool
// plus collector must wind down cleanly.
func TestDeadlineAbortSettlesRounds(t *testing.T) {
	base := runtime.NumGoroutine()
	const m, rounds = 8, 40
	stats := &metrics.OverloadStats{}
	g, err := core.NewGate(core.Config{Streams: m, Budget: 6, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{
		Source:              NewLocalSource(mkFleet(m, 17), rounds),
		Gate:                g,
		Task:                infer.PersonCounting{},
		Workers:             2,
		MaxInFlight:         4,
		Pipelined:           true,
		Deadline:            2 * time.Millisecond,
		LatencyNanosPerUnit: 500_000, // decodes dwarf the deadline
		Overload:            stats,
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
	if rep.DeadlineAborted == 0 {
		t.Fatalf("no deadline aborts despite decodes exceeding the deadline: %+v", rep)
	}
	if rep.Overload.Aborted != rep.DeadlineAborted {
		t.Fatalf("overload stats aborted = %d, report = %d",
			rep.Overload.Aborted, rep.DeadlineAborted)
	}
	// Aborted selections were never decoded: the packet count still covers
	// them, the decode count must not.
	if rep.Decoded+rep.DeadlineAborted > rep.Packets {
		t.Fatalf("accounting overlap: decoded %d + aborted %d > packets %d",
			rep.Decoded, rep.DeadlineAborted, rep.Packets)
	}
	if g.Pending() != 0 {
		t.Fatalf("gate left with %d unacked rounds", g.Pending())
	}
	waitGoroutines(t, base)
}

// TestCloseDuringDeadlineAborts is the leak regression for abandoned
// rounds: Close while deadline aborts are in flight must still drain the
// collector and decode pool with no goroutines left behind.
func TestCloseDuringDeadlineAborts(t *testing.T) {
	base := runtime.NumGoroutine()
	const m = 8
	g, err := core.NewGate(core.Config{Streams: m, Budget: 6, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	var once bool
	eng, err := New(Config{
		Source:              NewLocalSource(mkFleet(m, 23), 0), // unlimited: only Close ends the run
		Gate:                g,
		Task:                infer.PersonCounting{},
		Workers:             2,
		MaxInFlight:         4,
		Pipelined:           true,
		Deadline:            time.Millisecond,
		LatencyNanosPerUnit: 500_000,
		OnRound: func(round int64, sel []int) {
			if !once && round >= 6 {
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
	<-started // rounds in flight, deadline timer armed, aborts likely underway
	eng.Close()
	res := <-done
	if res.err != nil {
		t.Fatalf("closed run returned error: %v", res.err)
	}
	if g.Pending() != 0 {
		t.Fatalf("gate left with %d unacked rounds after Close", g.Pending())
	}
	waitGoroutines(t, base)
}

// brownedOutGovernor builds a governor pre-stepped to the shed rung and
// pinned there: the SLO is set far above any wall-clock round latency so no
// in-run observation registers pressure, and ExitAfter is unreachable so it
// never climbs back. B_eff stays at Budget (no cuts ever fire).
func brownedOutGovernor(t *testing.T, budget float64, rungs int) *overload.Governor {
	t.Helper()
	gov, err := overload.NewGovernor(overload.Config{
		SLO:        time.Hour,
		Budget:     budget,
		MinBudget:  budget,
		EnterAfter: 1,
		ExitAfter:  1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rungs; i++ {
		gov.Observe(2*time.Hour, 0)
	}
	return gov
}

// TestBrownoutShedDeterminismPipelined runs the pipelined engine twice with
// identical seeds and a governor pinned below the full rung: the admission
// filter's shed decisions — and therefore every round's selection — must be
// bit-identical across runs regardless of decode timing.
func TestBrownoutShedDeterminismPipelined(t *testing.T) {
	const m, rounds = 16, 120
	priorities := make([]uint8, m)
	for i := range priorities {
		priorities[i] = uint8(i % 4)
	}
	run := func() ([][]int, Report) {
		gov := brownedOutGovernor(t, 8, 2) // ModeKeyframeOnly
		g, err := core.NewGate(core.Config{
			Streams:     m,
			Budget:      8,
			UseTemporal: true,
			Priorities:  priorities,
			Governor:    gov,
		})
		if err != nil {
			t.Fatal(err)
		}
		var sels [][]int
		eng, err := New(Config{
			Source:      NewLocalSource(mkFleet(m, 41), rounds),
			Gate:        g,
			Task:        infer.PersonCounting{},
			Workers:     3,
			MaxInFlight: 4,
			Pipelined:   true,
			Governor:    gov,
			OnRound: func(round int64, sel []int) {
				sels = append(sels, append([]int(nil), sel...))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return sels, rep
	}
	selsA, repA := run()
	selsB, repB := run()
	if len(selsA) != rounds || len(selsB) != rounds {
		t.Fatalf("rounds decided: %d vs %d, want %d", len(selsA), len(selsB), rounds)
	}
	for r := range selsA {
		a, b := selsA[r], selsB[r]
		if len(a) != len(b) {
			t.Fatalf("round %d: selection size %d vs %d", r, len(a), len(b))
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("round %d slot %d: stream %d vs %d", r, k, a[k], b[k])
			}
		}
	}
	if repA.Decoded != repB.Decoded || repA.Rounds != repB.Rounds {
		t.Fatalf("reports diverged: %+v vs %+v", repA, repB)
	}
	// Keyframe-only brownout: with GOPSize 10 only every tenth round carries
	// admissible packets, so most rounds must select nothing.
	var empty int
	for _, s := range selsA {
		if len(s) == 0 {
			empty++
		}
	}
	if empty < rounds/2 {
		t.Fatalf("keyframe-only mode admitted too much: %d/%d empty rounds", empty, rounds)
	}
}
