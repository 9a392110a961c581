package experiments

import (
	"fmt"

	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/infer"
	"packetgame/internal/metrics"
	"packetgame/internal/pipeline"
)

// Pipe measures the engine with round overlap on against overlap off: round
// throughput at increasing in-flight depth under the offloaded-decoder
// latency model (visible on any host) and the CPU-burning model (visible
// with enough cores), confirming decisions stay identical throughout.
func Pipe(o Options) error {
	o = o.withDefaults()
	const workers = 8
	m := o.scaled(64, 16)
	rounds := o.scaled(300, 60)
	// Keep the budget above the I-frame cost at every scale, else nothing
	// is ever affordable once dependency debt accrues.
	budget := 3 + float64(m)/20

	mkFleet := func() []*codec.Stream {
		fleet := make([]*codec.Stream, m)
		for i := range fleet {
			fleet[i] = codec.NewStream(
				codec.SceneConfig{BaseActivity: 0.5, PersonRate: 0.4},
				codec.EncoderConfig{StreamID: i, GOPSize: 25},
				o.Seed+int64(i)*7919)
		}
		return fleet
	}
	run := func(pipelined bool, k int, latency int64) (pipeline.Report, [][]int, *metrics.StageSet, error) {
		g, err := core.NewGate(core.Config{Streams: m, Budget: budget, UseTemporal: true})
		if err != nil {
			return pipeline.Report{}, nil, nil, err
		}
		var decisions [][]int
		stages := &metrics.StageSet{}
		eng, err := pipeline.New(pipeline.Config{
			Source:              pipeline.NewLocalSource(mkFleet(), rounds),
			Gate:                g,
			Task:                infer.PersonCounting{},
			Workers:             workers,
			MaxInFlight:         k,
			Pipelined:           pipelined,
			LatencyNanosPerUnit: latency,
			Stages:              stages,
			OnRound: func(_ int64, sel []int) {
				decisions = append(decisions, sel)
			},
		})
		if err != nil {
			return pipeline.Report{}, nil, nil, err
		}
		rep, err := eng.Run(0)
		return rep, decisions, stages, err
	}
	identical := func(a, b [][]int) bool {
		if len(a) != len(b) {
			return false
		}
		for r := range a {
			if len(a[r]) != len(b[r]) {
				return false
			}
			for i := range a[r] {
				if a[r][i] != b[r][i] {
					return false
				}
			}
		}
		return true
	}

	const latency = int64(500_000) // 0.5ms per decode unit
	o.printf("=== Engine round overlap: pipelined vs one round at a time (m=%d, budget=%.1f, workers=%d) ===\n", m, budget, workers)
	o.printf("offloaded-decoder model, %.1fms per decode unit, %d rounds\n\n", float64(latency)/1e6, rounds)
	o.printf("%-22s %12s %12s %10s %10s\n", "engine", "rounds/s", "decodes/s", "gain", "decisions")

	repSeq, selSeq, _, err := run(false, 1, latency)
	if err != nil {
		return err
	}
	seqRPS := float64(repSeq.Rounds) / repSeq.Elapsed.Seconds()
	o.printf("%-22s %12.1f %12.0f %10s %10s\n", "no overlap k=1", seqRPS, repSeq.DecodedFPS, "1.00x", "ref")

	for _, k := range []int{1, 2, 4, 8} {
		rep, sel, stages, err := run(true, k, latency)
		if err != nil {
			return err
		}
		rps := float64(rep.Rounds) / rep.Elapsed.Seconds()
		// A deeper lag legitimately changes decisions vs the k=1
		// reference, so compare against a no-overlap run at the same k.
		refSel := selSeq
		if k > 1 {
			_, refSel, _, err = run(false, k, 0)
			if err != nil {
				return err
			}
		}
		match := "DIFFER"
		if identical(refSel, sel) {
			match = "identical"
		}
		o.printf("%-22s %12.1f %12.0f %9.2fx %10s   (decode depth ≤%d, mean %.2fms)\n",
			fmt.Sprintf("pipelined k=%d", k), rps, rep.DecodedFPS, rps/seqRPS, match,
			stages.Decode.Snapshot().MaxDepth, stages.Decode.Snapshot().MeanNanos()/1e6)
	}
	o.printf("\n(k is the feedback lag: Decide(t) sees redundancy feedback through round t−k.\n")
	o.printf(" It is one engine loop either way and decisions are identical at equal k;\n")
	o.printf(" wall-clock gains come purely from letting rounds overlap across the gate,\n")
	o.printf(" decode, and infer stages.)\n")
	return nil
}
