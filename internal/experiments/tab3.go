package experiments

import (
	"fmt"

	"packetgame/internal/core"
	"packetgame/internal/decode"
	"packetgame/internal/infer"
	"packetgame/internal/predictor"
)

// onlineSetup bundles everything needed to run online gating experiments
// for one task: the fleet factory and the trained (full and ablated)
// predictors.
type onlineSetup struct {
	o    Options
	task infer.Task
	pg   *predictor.Predictor // full (temporal fused)
	ctx  *predictor.Predictor // contextual-only ablation
	// avgCost is the measured mean per-packet decode cost of the fleet.
	avgCost float64
}

// newOnlineSetup trains the predictors for a task on its offline corpus.
func newOnlineSetup(o Options, task infer.Task) (*onlineSetup, error) {
	td, err := collectTaskData(task, o, o.scaled(16, 6), o.scaled(4000, 800))
	if err != nil {
		return nil, err
	}
	epochs := o.scaled(35, 10)
	ctxCfg := predictor.DefaultConfig()
	ctxCfg.UseTemporal = false
	ctx, err := trainPredictor(ctxCfg, td.train, epochs, o.Seed+11)
	if err != nil {
		return nil, err
	}
	pg, err := trainPredictor(predictor.DefaultConfig(), td.train, epochs, o.Seed+12)
	if err != nil {
		return nil, err
	}
	s := &onlineSetup{o: o, task: task, pg: pg, ctx: ctx}

	// Measure the fleet's mean per-packet cost.
	probe := streamsFor(task, 4, o.Seed+13)
	var cost float64
	n := 0
	for _, st := range probe {
		for i := 0; i < 200; i++ {
			cost += decode.DefaultCosts.Of(st.Next().Type)
			n++
		}
	}
	s.avgCost = cost / float64(n)
	return s, nil
}

// gateFor builds the gating policy of the named method over m streams.
func (s *onlineSetup) gateFor(method string, m int, budget float64) (core.Decider, error) {
	switch method {
	case "Temporal":
		return core.NewGate(core.Config{
			Streams: m, Budget: budget, UseTemporal: true,
		})
	case "Contextual":
		return core.NewGate(core.Config{
			Streams: m, Budget: budget, Predictor: s.ctx,
		})
	case "PacketGame":
		return core.NewGate(core.Config{
			Streams: m, Budget: budget, Predictor: s.pg, UseTemporal: true,
		})
	}
	return nil, fmt.Errorf("experiments: unknown method %q", method)
}

// accuracyAt runs one online gating run and returns its balanced accuracy.
func (s *onlineSetup) accuracyAt(method string, m int, budget float64, rounds int) (float64, error) {
	d, err := s.gateFor(method, m, budget)
	if err != nil {
		return 0, err
	}
	return balancedAccuracy(streamsFor(s.task, m, s.o.Seed+500), s.task, d, rounds)
}

// minBudgetFor bisects the smallest per-round budget whose accuracy meets
// the target.
func (s *onlineSetup) minBudgetFor(method string, m int, target float64, rounds int) (float64, error) {
	full := float64(m) * s.avgCost
	lo, hi := 0.0, full
	// Verify the target is reachable at the full budget.
	if acc, err := s.accuracyAt(method, m, full, rounds); err != nil {
		return 0, err
	} else if acc < target {
		return full, nil
	}
	for iter := 0; iter < 7; iter++ {
		mid := (lo + hi) / 2
		acc, err := s.accuracyAt(method, m, mid, rounds)
		if err != nil {
			return 0, err
		}
		if acc >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// maxStreamsFor searches the largest stream count sustaining the target
// accuracy at a fixed budget.
func (s *onlineSetup) maxStreamsFor(method string, budget, target float64, rounds int) (int, error) {
	// Doubling phase.
	lo := 1
	hi := 2
	for {
		acc, err := s.accuracyAt(method, hi, budget, rounds)
		if err != nil {
			return 0, err
		}
		if acc < target || hi >= s.o.scaled(2048, 256) {
			break
		}
		lo = hi
		hi *= 2
	}
	// Bisection phase.
	for hi-lo > 1+(lo/16) {
		mid := (lo + hi) / 2
		acc, err := s.accuracyAt(method, mid, budget, rounds)
		if err != nil {
			return 0, err
		}
		if acc >= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// tab3Methods fixes the report ordering.
var tab3Methods = []string{"Temporal", "Contextual", "PacketGame"}

// paper-reported Tab 3 cells: budget saving / concurrency factor.
var tab3Paper = map[string]map[string]string{
	"PC": {"Temporal": "52.6%/2.3x", "Contextual": "68.1%/2.9x", "PacketGame": "75.2%/3.6x"},
	"AD": {"Temporal": "71.8%/3.6x", "Contextual": "38.9%/1.7x", "PacketGame": "79.3%/4.8x"},
	"SR": {"Temporal": "75.8%/4.1x", "Contextual": "14.4%/1.1x", "PacketGame": "76.2%/4.3x"},
	"FD": {"Temporal": "50.5%/1.9x", "Contextual": "31.0%/1.5x", "PacketGame": "52.0%/2.1x"},
}

// Tab3 reproduces the overall efficiency table: decoding budget saved and
// maximal concurrency at 90% target accuracy, for the temporal-only and
// contextual-only ablations and the full system.
func Tab3(o Options) error {
	o = o.withDefaults()
	m := o.scaled(120, 20)
	rounds := o.scaled(1200, 300)
	budget := roundBudget870 * o.Scale
	if budget < 3 {
		budget = 3
	}
	o.printf("=== Tab 3: budget saving / concurrency at 90%% accuracy ===\n")
	o.printf("(fleet %d streams for budget search; fixed budget %.1f units/round for concurrency)\n", m, budget)
	for _, task := range infer.AllTasks() {
		s, err := newOnlineSetup(o, task)
		if err != nil {
			return err
		}
		full := float64(m) * s.avgCost
		// Original-workload concurrency: decode everything.
		base := int(budget / s.avgCost)
		if base < 1 {
			base = 1
		}
		o.printf("\n--- task %s (decode-all budget %.1f; original concurrency %d) ---\n",
			task.Name(), full, base)
		o.printf("%-12s %14s %14s %18s\n", "method", "budget saving", "concurrency", "paper (save/conc)")
		for _, method := range tab3Methods {
			minB, err := s.minBudgetFor(method, m, 0.9, rounds)
			if err != nil {
				return err
			}
			saving := 1 - minB/full
			maxM, err := s.maxStreamsFor(method, budget, 0.9, rounds)
			if err != nil {
				return err
			}
			o.printf("%-12s %13.1f%% %13.1fx %18s\n",
				method, saving*100, float64(maxM)/float64(base), tab3Paper[task.Name()][method])
		}
	}
	return nil
}
