package pipeline

import (
	"fmt"
	"testing"

	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/infer"
)

// churnCam wraps a synthetic stream with seeded random idleness: each round
// it emits nothing with probability idlePct/100. Rebuilding with the same
// seed replays the identical activity pattern, which is what lets the runs
// below consume the same rounds through different representations.
type churnCam struct {
	st      *codec.Stream
	rng     uint64
	idlePct uint64
	last    codec.Scene
	ok      bool
}

func (c *churnCam) Next() *codec.Packet {
	c.rng = c.rng*6364136223846793005 + 1442695040888963407
	if (c.rng>>33)%100 < c.idlePct {
		c.ok = false
		return nil
	}
	p := c.st.Next()
	c.last = c.st.LastScene
	c.ok = true
	return p
}

func (c *churnCam) Truth() (codec.Scene, bool) { return c.last, c.ok }

func mkChurnFleet(m int, seed int64, idlePct uint64) []Camera {
	cams := make([]Camera, m)
	for i := range cams {
		cams[i] = &churnCam{
			st: codec.NewStream(
				codec.SceneConfig{BaseActivity: 0.5, PersonRate: 0.4},
				codec.EncoderConfig{StreamID: i, GOPSize: 10},
				seed+int64(i)*31),
			rng:     uint64(seed)*2862933555777941757 + uint64(i)*3037000493 + 1,
			idlePct: idlePct,
		}
	}
	return cams
}

// denseOnly hides a source's NextRoundSparse: the engine sees a plain
// RoundSource and pulls it through the Sparse adapter's dense gather.
type denseOnly struct{ RoundSource }

// runChurn runs one engine over a seeded churn fleet. dense hands the source
// over as a dense-only RoundSource, so any divergence from a dense=false
// twin is a bug in the adapter or in the source's own sparse rounds.
func runChurn(t *testing.T, dense, pipelined bool, k, workers, m, rounds int, budget float64, seed int64, idlePct uint64) ([][]int, Report, core.Stats) {
	t.Helper()
	g, err := core.NewGate(core.Config{Streams: m, Budget: budget, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	var decisions [][]int
	var src RoundSource = NewCameraSource(mkChurnFleet(m, seed, idlePct), rounds)
	if dense {
		src = denseOnly{src}
	}
	eng, err := New(Config{
		Source:      src,
		Gate:        g,
		Task:        infer.PersonCounting{},
		Workers:     workers,
		MaxInFlight: k,
		Pipelined:   pipelined,
		OnRound: func(round int64, sel []int) {
			if int64(len(decisions)) != round {
				t.Errorf("OnRound out of order: round %d after %d rounds", round, len(decisions))
			}
			decisions = append(decisions, sel)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	return decisions, rep, g.Stats()
}

// refChurn runs the reference loop over the same seeded churn fleet, pulled
// dense.
func refChurn(t *testing.T, k, m, rounds int, budget float64, seed int64, idlePct uint64) ([][]int, Report, core.Stats) {
	t.Helper()
	g := mkGate(t, m, budget)
	g.SetMaxPending(k)
	sels, rep := refLoop(t, g, NewCameraSource(mkChurnFleet(m, seed, idlePct), rounds), infer.PersonCounting{}, m, k)
	return sels, rep, g.Stats()
}

// TestSparseRoundsMatchDense is the round-representation property test:
// across randomized activity levels (including heavy idleness and fully
// dense rounds), both overlap modes and lags 1 to 4, a source's own sparse
// rounds and the same source pulled dense through the adapter must both be
// bit-identical to the reference loop — same per-round decode sets, same
// report counters, same gate statistics.
func TestSparseRoundsMatchDense(t *testing.T) {
	cases := []struct {
		pipelined bool
		k         int
		idlePct   uint64
		seed      int64
	}{
		{pipelined: false, k: 1, idlePct: 0, seed: 101},
		{pipelined: false, k: 3, idlePct: 35, seed: 102},
		{pipelined: false, k: 1, idlePct: 90, seed: 103},
		{pipelined: true, k: 1, idlePct: 35, seed: 104},
		{pipelined: true, k: 3, idlePct: 60, seed: 105},
		{pipelined: true, k: 4, idlePct: 95, seed: 106},
	}
	const m, rounds = 24, 140
	for _, tc := range cases {
		name := fmt.Sprintf("pipelined=%v/k=%d/idle=%d", tc.pipelined, tc.k, tc.idlePct)
		t.Run(name, func(t *testing.T) {
			selRef, repRef, stRef := refChurn(t, tc.k, m, rounds, 8, tc.seed, tc.idlePct)
			if repRef.Rounds != int64(rounds) {
				t.Fatalf("reference ran %d rounds, want %d", repRef.Rounds, rounds)
			}
			for _, dense := range []bool{true, false} {
				sel, rep, st := runChurn(t, dense, tc.pipelined, tc.k, 6, m, rounds, 8, tc.seed, tc.idlePct)
				compareRuns(t, fmt.Sprintf("%s/dense=%v", name, dense), selRef, sel, repRef, rep, stRef, st)
			}
		})
	}
}

// TestSparsePipelinedMatchesSparseSequential closes the square: on the
// source's own sparse rounds, overlap off and overlap on at lag k must both
// match the reference loop at the same lag.
func TestSparsePipelinedMatchesSparseSequential(t *testing.T) {
	const m, rounds = 20, 120
	for _, k := range []int{1, 3} {
		name := fmt.Sprintf("k%d", k)
		t.Run(name, func(t *testing.T) {
			selRef, repRef, stRef := refChurn(t, k, m, rounds, 7, 201, 50)
			for _, pipelined := range []bool{false, true} {
				sel, rep, st := runChurn(t, false, pipelined, k, 5, m, rounds, 7, 201, 50)
				compareRuns(t, fmt.Sprintf("%s/pipelined=%v", name, pipelined), selRef, sel, repRef, rep, stRef, st)
			}
		})
	}
}

// TestSparseLocalSourceMatchesDense runs a LocalSource fleet (never idle)
// end to end: it must settle every packet, matching its dense-only twin
// exactly.
func TestSparseLocalSourceMatchesDense(t *testing.T) {
	const m, rounds = 12, 100
	run := func(dense bool) ([][]int, Report, core.Stats) {
		g, err := core.NewGate(core.Config{Streams: m, Budget: 5, UseTemporal: true})
		if err != nil {
			t.Fatal(err)
		}
		var decisions [][]int
		var src RoundSource = NewLocalSource(mkFleet(m, 55), rounds)
		if dense {
			src = denseOnly{src}
		}
		eng, err := New(Config{
			Source:  src,
			Gate:    g,
			Task:    infer.PersonCounting{},
			OnRound: func(_ int64, sel []int) { decisions = append(decisions, sel) },
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return decisions, rep, g.Stats()
	}
	selD, repD, stD := run(true)
	selS, repS, stS := run(false)
	if repS.Packets != int64(m*rounds) {
		t.Errorf("sparse local packets = %d, want %d", repS.Packets, m*rounds)
	}
	compareRuns(t, "local", selD, selS, repD, repS, stD, stS)
}
