package experiments

import (
	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/dataset"
	"packetgame/internal/decode"
	"packetgame/internal/infer"
	"packetgame/internal/knapsack"
)

// roundBudget870 is the per-round decode budget corresponding to the
// paper's 870-FPS software decoder at 25 rounds per second.
const roundBudget870 = paperDecode12CPU / 25

// Fig4 reproduces the cross-stream coordination motivation: (a) necessary
// inference over one day shows two peaks and stays below the 870-FPS decode
// capacity (540.8 FPS max), so perfect gating would fit the budget; (b)
// round-robin degrades quickly with stream count while the optimal
// cross-stream policy scales to thousands of streams.
func Fig4(o Options) error {
	o = o.withDefaults()

	// (a) Diurnal necessary-inference profile, extrapolated to 1108
	// cameras: each hour of the day is sampled with a short window of
	// real-time frames at that hour's activity level.
	o.printf("=== Fig 4a: necessary inference over one day (PC, 1108-camera equivalent) ===\n")
	m := o.scaled(40, 10)
	windowRounds := o.scaled(25*30, 25*6) // frames sampled per hour
	task := infer.PersonCounting{}
	o.printf("%6s %22s   (decode capacity: 870 FPS; paper max: 540.8 FPS)\n",
		"hour", "necessary FPS (1108 cams)")
	peak := 0.0
	for h := 0; h < 24; h++ {
		streams := make([]*codec.Stream, m)
		for i := range streams {
			streams[i] = codec.NewStream(codec.SceneConfig{
				Diurnal: true, StartHour: float64(h),
				BaseActivity: 0.35, PersonRate: 0.3,
			}, codec.EncoderConfig{StreamID: i, Codec: codec.H265, GOPSize: 25, GOPPhase: i * 7},
				o.Seed+int64(h*1000+i)*131)
		}
		prev := make([]infer.Result, m)
		started := make([]bool, m)
		necessary, rounds := 0.0, 0.0
		for t := 0; t < windowRounds; t++ {
			for i, st := range streams {
				st.Next()
				cur := task.ResultOf(st.LastScene)
				if !started[i] || task.Necessary(prev[i], cur) {
					necessary++
				}
				prev[i], started[i] = cur, true
				rounds++
			}
		}
		fps := necessary / rounds * 25 * 1108
		if fps > peak {
			peak = fps
		}
		o.printf("%6d %22.1f\n", h, fps)
	}
	o.printf("peak necessary load: %.1f FPS vs decode capacity %.0f FPS\n", peak, paperDecode12CPU)

	// (b) Round-robin vs optimal accuracy as stream count grows, at the
	// fixed 870-FPS budget.
	o.printf("\n=== Fig 4b: balanced accuracy vs number of streams (budget %.1f units/round) ===\n", roundBudget870)
	o.printf("%8s %12s %12s\n", "streams", "round-robin", "optimal")
	rounds := o.scaled(800, 200)
	for _, mm := range []int{25, 50, 100, 200, 400, 800} {
		mm = o.scaled(mm, mm/8+1)
		rr, err := runFig4Policy(o, mm, rounds, func(*Eval) core.Decider {
			return core.NewBaselineGate(mm, decode.DefaultCosts, &knapsack.RoundRobin{}, nil, roundBudget870)
		})
		if err != nil {
			return err
		}
		opt, err := runFig4Policy(o, mm, rounds, func(ev *Eval) core.Decider {
			return core.NewBaselineGate(mm, decode.DefaultCosts, &knapsack.Greedy{}, ev.OracleValues, roundBudget870)
		})
		if err != nil {
			return err
		}
		o.printf("%8d %12.3f %12.3f\n", mm, rr, opt)
	}
	o.printf("(paper: optimal sustains ~2000 streams at 90%% accuracy, round-robin ~30)\n")
	return nil
}

// runFig4Policy runs one Fig 4b cell and returns its balanced accuracy.
func runFig4Policy(o Options, m, rounds int, mk func(*Eval) core.Decider) (float64, error) {
	streams := dataset.Campus1K(dataset.Campus1KConfig{Cameras: m, Seed: o.Seed + 900})
	// Busy non-diurnal cameras keep the workload stationary across cells.
	for i := range streams {
		streams[i] = codec.NewStream(codec.SceneConfig{
			BaseActivity: 0.4, PersonRate: 0.25,
		}, codec.EncoderConfig{StreamID: i, Codec: codec.H265, GOPSize: 25, GOPPhase: i * 7},
			o.Seed+int64(i)*977)
	}
	ev, eng, err := NewEval(streams, infer.PersonCounting{})
	if err != nil {
		return 0, err
	}
	ev.Decider = mk(ev)
	if _, err := eng.Run(rounds); err != nil {
		return 0, err
	}
	return eng.Fleet().BalancedAccuracy(), nil
}
