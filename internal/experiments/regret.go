package experiments

import (
	"packetgame/internal/bandit"
	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/decode"
	"packetgame/internal/infer"
	"packetgame/internal/knapsack"
	"packetgame/internal/pipeline"
)

// maskDecider hides a fixed subset of streams from an inner policy: the
// inner policy only ever sees packets of the kept streams.
type maskDecider struct {
	inner core.Decider
	keep  func(i int) bool
	buf   []*codec.Packet
}

// Decide implements core.Decider.
func (d *maskDecider) Decide(pkts []*codec.Packet) ([]int, error) {
	for i, p := range pkts {
		if d.keep(i) {
			d.buf[i] = p
		} else {
			d.buf[i] = nil
		}
	}
	return d.inner.Decide(d.buf)
}

// Feedback implements core.Decider.
func (d *maskDecider) Feedback(sel []int, necessary []bool) error {
	return d.inner.Feedback(sel, necessary)
}

// Regret validates Theorem 1 empirically. The comparator is the best fixed
// stream-priority policy in hindsight — here known by construction: half
// the fleet is busy and half is quiet, so the best static policy spends the
// whole budget rotating over the busy streams. (Regret against a clairvoyant
// per-round oracle is linear for every online algorithm — the oracle knows
// when each count changes — so, as in the bandit literature the paper cites,
// regret is measured against the best fixed policy.) Theorem 1 predicts
// sublinear growth: PacketGame's per-round regret should shrink over time,
// while a non-learning random policy's stays flat.
func Regret(o Options) error {
	o = o.withDefaults()
	m := o.scaled(24, 12)
	if m%2 != 0 {
		m++
	}
	rounds := o.scaled(8000, 2000)
	budget := float64(m) / 6
	if budget < 4 {
		budget = 4 // at least one I-frame must always be affordable
	}

	mkStreams := func() []*codec.Stream {
		streams := make([]*codec.Stream, m)
		for i := range streams {
			sc := codec.SceneConfig{BaseActivity: 0.08, PersonRate: 0.02}
			if i%2 == 0 {
				sc = codec.SceneConfig{BaseActivity: 0.9, PersonRate: 1.0, PersonStay: 4}
			}
			streams[i] = codec.NewStream(sc, codec.EncoderConfig{StreamID: i, GOPSize: 25},
				o.Seed+int64(i)*211)
		}
		return streams
	}
	task := infer.PersonCounting{}

	// The algorithm under test.
	gate, err := core.NewGate(core.Config{Streams: m, Budget: budget, UseTemporal: true})
	if err != nil {
		return err
	}
	policies := [3]core.Decider{
		gate,
		// The best fixed policy in hindsight: round-robin restricted to the
		// busy half of the fleet (fair rotation maximizes distinct necessary
		// decodes under this reward structure; quiet streams contribute
		// nothing). Implemented by masking quiet streams' packets before a
		// round-robin baseline.
		&maskDecider{
			inner: core.NewBaselineGate(m, decode.DefaultCosts, &knapsack.RoundRobin{}, nil, budget),
			keep:  func(i int) bool { return i%2 == 0 },
			buf:   make([]*codec.Packet, m),
		},
		// A uniform-random reference for contrast.
		core.NewBaselineGate(m, decode.DefaultCosts, knapsack.NewRandom(o.Seed+7), nil, budget),
	}
	var engs [3]*pipeline.Engine
	for k, d := range policies {
		if engs[k], err = localEngine(mkStreams(), task, d); err != nil {
			return err
		}
	}

	// Per-round reward = necessary decodes this round; each Run(1) call
	// settles exactly one round, applies its feedback, and reports that
	// round's counters.
	var algMeter, rndMeter bandit.RegretMeter
	for t := 0; t < rounds; t++ {
		var reward [3]float64 // algorithm, best fixed, random
		for k, eng := range engs {
			rep, err := eng.Run(1)
			if err != nil {
				return err
			}
			reward[k] = float64(rep.NecessaryDecoded)
		}
		algMeter.Add(reward[1], reward[0])
		rndMeter.Add(reward[1], reward[2])
	}

	perRound := func(meter *bandit.RegretMeter, from, to int) float64 {
		h := meter.History()
		if to > len(h) {
			to = len(h)
		}
		if from >= to {
			return 0
		}
		start := 0.0
		if from > 0 {
			start = h[from-1]
		}
		return (h[to-1] - start) / float64(to-from)
	}
	half := rounds / 2
	o.printf("=== Thm 1: regret vs the best fixed stream-priority policy ===\n")
	o.printf("%-14s %14s %10s %14s %14s\n", "policy", "total regret", "exponent", "1st-half r/T", "2nd-half r/T")
	o.printf("%-14s %14.1f %10.2f %14.4f %14.4f\n", "PacketGame",
		algMeter.Total(), algMeter.GrowthExponent(),
		perRound(&algMeter, 0, half), perRound(&algMeter, half, rounds))
	o.printf("%-14s %14.1f %10.2f %14.4f %14.4f\n", "Random",
		rndMeter.Total(), rndMeter.GrowthExponent(),
		perRound(&rndMeter, 0, half), perRound(&rndMeter, half, rounds))
	o.printf("(sublinear regret: PacketGame's exponent stays below 1 and its per-round\n")
	o.printf(" regret falls between the halves; Random's regret grows linearly)\n")
	return nil
}
