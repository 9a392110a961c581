package pipeline

import (
	"errors"
	"runtime"
	"testing"

	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/decode"
	"packetgame/internal/infer"
	"packetgame/internal/knapsack"
)

// benchEngine builds an engine over a fresh seeded fleet. burn and latency
// select the decode time model (CPU-burning for multi-core wall-clock
// benchmarks, session-latency for overlap measurements on any host).
func benchEngine(tb testing.TB, pipelined bool, k, workers, m, rounds int, budget float64, burn, latency int64) *Engine {
	tb.Helper()
	g, err := core.NewGate(core.Config{Streams: m, Budget: budget, UseTemporal: true})
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := New(Config{
		Source:              NewLocalSource(mkFleet(m, 7), rounds),
		Gate:                g,
		Task:                infer.PersonCounting{},
		Workers:             workers,
		MaxInFlight:         k,
		Pipelined:           pipelined,
		BurnNanosPerUnit:    burn,
		LatencyNanosPerUnit: latency,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// TestPipelinedThroughputGain measures round throughput with overlap on
// against overlap off ("sequential" below) under the offloaded-decoder latency
// model (decode holds a session for cost-proportional wall-clock time, no
// host CPU), where pipeline overlap is visible regardless of host core
// count. Decisions must stay identical — the speedup may not come from
// deciding differently.
func TestPipelinedThroughputGain(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const (
		m, rounds, workers, k = 64, 40, 8, 4
		budget                = 6.0
		latency               = int64(1_000_000) // 1ms per decode unit
	)
	run := func(pipelined bool) (Report, [][]int) {
		eng := benchEngine(t, pipelined, k, workers, m, rounds, budget, 0, latency)
		var decisions [][]int
		eng.cfg.OnRound = func(_ int64, sel []int) { decisions = append(decisions, sel) }
		rep, err := eng.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return rep, decisions
	}
	repSeq, selSeq := run(false)
	repPipe, selPipe := run(true)

	if len(selSeq) != len(selPipe) {
		t.Fatalf("round counts differ: %d vs %d", len(selSeq), len(selPipe))
	}
	for r := range selSeq {
		a, b := selSeq[r], selPipe[r]
		if len(a) != len(b) {
			t.Fatalf("round %d decode sets differ: %v vs %v", r, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round %d decode sets differ: %v vs %v", r, a, b)
			}
		}
	}
	seqRPS := float64(repSeq.Rounds) / repSeq.Elapsed.Seconds()
	pipeRPS := float64(repPipe.Rounds) / repPipe.Elapsed.Seconds()
	gain := pipeRPS / seqRPS
	t.Logf("sequential %.1f rounds/s, pipelined %.1f rounds/s, gain %.2fx", seqRPS, pipeRPS, gain)
	if gain < 1.5 {
		t.Errorf("pipelined gain %.2fx below 1.5x (sequential %v, pipelined %v for %d rounds)",
			gain, repSeq.Elapsed, repPipe.Elapsed, rounds)
	}
}

// BenchmarkEngineRounds compares round throughput with overlap off
// ("sequential") and on under the CPU-burning decode model at Workers=8 — the multi-core wall-clock
// comparison (run on a host with ≥8 cores for the full effect; on smaller
// hosts the latency-model test above measures overlap instead).
func BenchmarkEngineRounds(b *testing.B) {
	const (
		m, workers, k = 64, 8, 4
		budget        = 9.0
		burn          = int64(20_000) // 20µs CPU per decode unit
	)
	for _, mode := range []struct {
		name      string
		pipelined bool
	}{{"sequential", false}, {"pipelined", true}} {
		b.Run(mode.name, func(b *testing.B) {
			eng := benchEngine(b, mode.pipelined, k, workers, m, 0, budget, burn, 0)
			b.ResetTimer()
			rep, err := eng.Run(b.N)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if rep.Rounds != int64(b.N) {
				b.Fatalf("ran %d rounds, want %d", rep.Rounds, b.N)
			}
			b.ReportMetric(float64(rep.Decoded)/b.Elapsed().Seconds(), "decodes/s")
		})
	}
}

// loopSource replays a fixed set of sparse rounds forever, handing out its
// own storage: a source that allocates nothing, so what a run allocates is
// the engine's (and the gate's) alone.
type loopSource struct {
	rounds []codec.Round
	next   int
}

func (s *loopSource) NextRoundSparse() (*codec.Round, error) {
	s.next++
	return &s.rounds[(s.next-1)%len(s.rounds)], nil
}

func (s *loopSource) NextRound() ([]*codec.Packet, error) {
	return nil, errors.New("loopSource is pulled sparse")
}

func (s *loopSource) Truth(int) (codec.Scene, bool) { return codec.Scene{}, false }

// TestEngineRoundAllocCeiling holds the steady-state round to a few bytes:
// with overlap off and on at k=2, over a source that recycles its rounds, a
// round of ~13 selections must cost less than one small object — so nothing
// in the loop allocates per round, let alone per selected packet. (The
// residue is each Run call's pool and channels spread over its rounds.)
func TestEngineRoundAllocCeiling(t *testing.T) {
	engineRoundAllocCeiling(t, func(m int, budget float64) core.Decider { return mkGate(t, m, budget) })
}

// TestBaselineRoundAllocCeiling holds a baseline policy's engine round to the
// same ceiling: BaselineGate costs and commits the round by position and
// appends its selection into the engine's recycled buffer.
func TestBaselineRoundAllocCeiling(t *testing.T) {
	engineRoundAllocCeiling(t, func(m int, budget float64) core.Decider {
		return core.NewBaselineGate(m, decode.DefaultCosts, &knapsack.Greedy{}, nil, budget)
	})
}

func engineRoundAllocCeiling(t *testing.T, gate func(m int, budget float64) core.Decider) {
	const (
		m, k, rounds   = 64, 2, 4000
		budget         = 20.0
		bytesPerRound  = 48
		mallocsCeiling = 0.5
	)
	for _, pipelined := range []bool{false, true} {
		src := &loopSource{rounds: make([]codec.Round, 40)}
		fleet := NewCameraSource(mkChurnFleet(m, 71, 30), 0)
		for r := range src.rounds {
			rnd, err := fleet.NextRoundSparse()
			if err != nil {
				t.Fatal(err)
			}
			src.rounds[r] = codec.Round{M: m, IDs: append([]int32(nil), rnd.IDs...), Pkts: append([]*codec.Packet(nil), rnd.Pkts...)}
		}
		eng, err := New(Config{
			Source: src, Gate: gate(m, budget), Task: infer.PersonCounting{},
			Workers: 4, MaxInFlight: k, Pipelined: pipelined,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(400); err != nil { // every recycled buffer reaches capacity
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := eng.Run(rounds)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / rounds
		mallocs := float64(after.Mallocs-before.Mallocs) / rounds
		t.Logf("pipelined=%v: %.1f B, %.3f mallocs per round (%.1f selections)", pipelined, bytes, mallocs, float64(rep.Decoded)/rounds)
		if rep.Decoded < 10*rounds {
			t.Fatalf("pipelined=%v: only %d selections in %d rounds; the ceiling would be vacuous", pipelined, rep.Decoded, rounds)
		}
		if bytes > bytesPerRound || mallocs > mallocsCeiling {
			t.Errorf("pipelined=%v: %.1f B and %.3f mallocs per round, want ≤ %d B and ≤ %.1f", pipelined, bytes, mallocs, bytesPerRound, mallocsCeiling)
		}
	}
}
