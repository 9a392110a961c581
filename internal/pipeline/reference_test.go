package pipeline

import (
	"io"
	"testing"

	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/decode"
	"packetgame/internal/infer"
)

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// refLoop is the paper's Fig. 1 loop written plainly, sharing nothing with
// the engine but the Decider, the decoder and the infer.Fleet it drives: pull
// a dense round, hand the Decider its FromDense form, decode every selection
// on the spot, run the monitors, and hand the feedback back k rounds late, so
// that decision t has seen rounds 0..t−k. It is what both overlap modes of the engine are held to:
// per-round selections and the counters of a Report.
func refLoop(t *testing.T, g core.Decider, src RoundSource, task infer.Task, m, k int) ([][]int, Report) {
	t.Helper()
	var (
		rep   Report
		sels  [][]int  // every round's selection
		necs  [][]bool // and its redundancy feedback
		fed   int      // rounds fed back so far
		fleet = infer.NewFleet(task, m)
		dec   = decode.NewDecoder(decode.DefaultCosts)
	)
	feedBack := func(keep int) {
		for ; len(sels)-fed > keep; fed++ {
			must(t, g.FeedbackFull(sels[fed], necs[fed], nil, nil))
		}
	}
	for {
		feedBack(k - 1)
		pkts, err := src.NextRound()
		if err == io.EOF {
			break
		}
		must(t, err)
		var rnd codec.Round
		rnd.FromDense(pkts)
		sel, err := g.DecideSparseAppend(&rnd, nil)
		must(t, err)
		nec := make([]bool, len(sel))
		decoded := make([]bool, len(pkts))
		for s, i := range sel {
			f, err := dec.Decode(pkts[i])
			must(t, err)
			truth, ok := src.Truth(i)
			if !ok {
				truth = f.Scene
			}
			decoded[i] = true
			if nec[s] = fleet.Stream(i).ObserveDecoded(truth, f.Scene); nec[s] {
				rep.NecessaryDecoded++
			}
		}
		for i, p := range pkts {
			if p == nil {
				continue
			}
			rep.Packets++
			if truth, ok := src.Truth(i); ok && !decoded[i] {
				fleet.Stream(i).ObserveSkipped(truth)
			}
		}
		rep.Rounds++
		rep.Decoded += int64(len(sel))
		rep.Inferred += int64(len(sel))
		sels, necs = append(sels, append([]int(nil), sel...)), append(necs, nec)
	}
	feedBack(0)
	rep.Accuracy = fleet.Accuracy()
	rep.GateFilterRate = 1 - float64(rep.Decoded)/float64(rep.Packets)
	return sels, rep
}
