package experiments

import (
	"packetgame/internal/codec"
	"packetgame/internal/infer"
)

// Fig10 reproduces the online accuracy-over-time curves: 24 time segments
// under a fixed decoding budget (the minimum at which PacketGame averages
// ≥90%). PC and AD dip during daytime peaks; SR and FD, whose events are
// time-uniform, stay flat.
func Fig10(o Options) error {
	o = o.withDefaults()
	m := o.scaled(80, 16)
	const segments = 24
	totalRounds := o.scaled(25*60*2, 25*30) // two minutes of frames = 24h compressed

	paperAvg := map[string]string{"PC": "90.1%", "AD": "90.0%", "SR": "90.1%", "FD": "90.2%"}
	for _, task := range infer.AllTasks() {
		s, err := newOnlineSetup(o, task)
		if err != nil {
			return err
		}
		streams := fig10Streams(o, task, m)
		// Pick the budget: bisect on the diurnal fleet itself.
		budget, err := fig10MinBudget(o, s, task, m, totalRounds)
		if err != nil {
			return err
		}
		gate, err := s.gateFor("PacketGame", m, budget)
		if err != nil {
			return err
		}
		eng, err := localEngine(streams, task, gate)
		if err != nil {
			return err
		}
		accs, err := SegmentAccuracy(eng, totalRounds, segments)
		if err != nil {
			return err
		}
		o.printf("=== Fig 10 (%s): balanced accuracy per time segment, B=%.1f (avg %.1f%%; paper avg %s) ===\n",
			task.Name(), budget, eng.Fleet().BalancedAccuracy()*100, paperAvg[task.Name()])
		o.printf("%8s %10s\n", "segment", "accuracy")
		for i, a := range accs {
			o.printf("%8d %10.3f\n", i, a)
		}
		o.printf("\n")
	}
	return nil
}

// fig10Streams builds the day-long fleet for a task: PC/AD get diurnal
// campus cameras; SR/FD keep their (time-uniform) corpora.
func fig10Streams(o Options, task infer.Task, m int) []*codec.Stream {
	switch task.Name() {
	case "PC", "AD":
		streams := make([]*codec.Stream, m)
		for i := range streams {
			streams[i] = codec.NewStream(codec.SceneConfig{
				Diurnal: true, TimeCompress: 720, // 2 min of frames = 24h
				BaseActivity: 0.4, PersonRate: 0.3, AnomalyRate: 40,
			}, codec.EncoderConfig{StreamID: i, Codec: codec.H265, GOPSize: 25, GOPPhase: i * 7},
				o.Seed+600+int64(i)*577)
		}
		return streams
	default:
		return streamsFor(task, m, o.Seed+600)
	}
}

// fig10MinBudget bisects the budget on the diurnal fleet.
func fig10MinBudget(o Options, s *onlineSetup, task infer.Task, m, rounds int) (float64, error) {
	lo, hi := 0.0, float64(m)*s.avgCost
	run := func(b float64) (float64, error) {
		gate, err := s.gateFor("PacketGame", m, b)
		if err != nil {
			return 0, err
		}
		return balancedAccuracy(fig10Streams(o, task, m), task, gate, rounds)
	}
	if acc, err := run(hi); err != nil {
		return 0, err
	} else if acc < 0.9 {
		return hi, nil
	}
	for iter := 0; iter < 7; iter++ {
		mid := (lo + hi) / 2
		acc, err := run(mid)
		if err != nil {
			return 0, err
		}
		if acc >= 0.9 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}
