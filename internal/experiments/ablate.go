package experiments

import (
	"packetgame/internal/core"
	"packetgame/internal/infer"
	"packetgame/internal/knapsack"
)

// Ablate exercises the design choices DESIGN.md calls out, beyond the
// paper's own Temporal/Contextual ablation (Tab 3): dependency-aware vs
// dependency-blind cost accounting, exploration on vs off, and the fill-pass
// vs prefix greedy optimizer. Each variant runs the same PC workload at the
// same budget; balanced accuracy is the score.
func Ablate(o Options) error {
	o = o.withDefaults()
	m := o.scaled(60, 16)
	rounds := o.scaled(2500, 600)
	budget := float64(m) / 5

	s, err := newOnlineSetup(o, infer.PersonCounting{})
	if err != nil {
		return err
	}

	off := false
	variants := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"full system", func(c *core.Config) {}},
		{"dependency-blind costs", func(c *core.Config) { c.DependencyAware = &off }},
		{"no exploration bonus", func(c *core.Config) { c.Explore = &off }},
		{"prefix greedy (no fill)", func(c *core.Config) { c.Selector = &knapsack.GreedyPrefix{} }},
		{"round-robin selector", func(c *core.Config) { c.Selector = &knapsack.RoundRobin{} }},
		{"online learning", func(c *core.Config) { c.OnlineLR = 0.001 }},
	}

	o.printf("=== Design-choice ablations (PC, %d streams, budget %.1f) ===\n", m, budget)
	o.printf("%-26s %10s %10s %10s %12s %10s\n", "variant", "bal.acc", "filter", "recall", "true cost", "overrun")
	nominal := budget * float64(rounds)
	for _, v := range variants {
		cfg := core.Config{Streams: m, Budget: budget, Predictor: s.pg, UseTemporal: true}
		v.mutate(&cfg)
		gate, err := core.NewGate(cfg)
		if err != nil {
			return err
		}
		ev, eng, err := NewEval(streamsFor(infer.PersonCounting{}, m, o.Seed+550), infer.PersonCounting{})
		if err != nil {
			return err
		}
		ev.Decider, ev.ProbeEvery = gate, 10
		rep, err := eng.Run(rounds)
		if err != nil {
			return err
		}
		o.printf("%-26s %10.3f %10.3f %10.3f %12.0f %9.0f%%\n",
			v.name, eng.Fleet().BalancedAccuracy(), rep.GateFilterRate, ev.Recall(),
			ev.TrueCost, (ev.TrueCost/nominal-1)*100)
	}
	o.printf("(true cost charges skipped reference chains; a variant with positive\n")
	o.printf(" overrun is spending beyond its nominal budget — the dependency-blind\n")
	o.printf(" pricing \"wins\" accuracy only by overdrawing the decoder)\n")
	return nil
}
