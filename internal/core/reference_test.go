package core

import (
	"math"

	"packetgame/internal/bandit"
	"packetgame/internal/codec"
	"packetgame/internal/decode"
	"packetgame/internal/knapsack"
	"packetgame/internal/overload"
	"packetgame/internal/predictor"
	"packetgame/internal/trace"
)

// refGate is the paper's Algorithm 1 written densely, for reading: every
// round it walks all m streams, scores every admitted packet through the
// forward it was given, sorts the whole candidate set from scratch, and
// pushes an m-length feedback vector. It keeps no score memo, no persistent
// order and no per-round dirty lists, and takes no locks. The
// twin tests drive it beside the production Gate and demand the same
// decisions, traces, stats and breaker snapshots.
//
// What it shares with production is the per-stream components only —
// predictor.Store, the bandit estimator, the decode trackers, breakerSet
// (through the dense shim below), the from-scratch solver knapsack.Tiered
// (one tier is the paper's greedy) — plus Config and its defaults. Nothing
// of the production gate's round logic is called.
type refGate struct {
	cfg Config
	// forward writes the [len(feats) × tasks] confidences row-major: the
	// compiled forward (Predictor.PredictInto) for the bit-identity twin, the
	// float64 one for the fast-path twin.
	forward func(feats []predictor.Features, out []float64) error

	store    *predictor.Store
	est      *bandit.TemporalEstimator // nil without temporal term and exploration
	trackers []*decode.Tracker
	breakers *breakerSet // nil when disarmed
	tiered   knapsack.Tiered
	trainer  *predictor.Trainer // nil without online learning
	buffer   []predictor.Sample

	pending []refRound // decided, awaiting feedback (oldest first)
	stats   Stats
}

type refRound struct {
	feats map[int]predictor.Features // what each decision was scored on (online learning)
	trace *trace.Round
}

func newRefGate(cfg Config, forward func([]predictor.Features, []float64) error) (*refGate, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	g := &refGate{cfg: cfg, forward: forward, store: predictor.NewStore(cfg.Streams, cfg.Window)}
	for i := 0; i < cfg.Streams; i++ {
		g.trackers = append(g.trackers, decode.NewTracker(cfg.Costs))
	}
	if cfg.UseTemporal || *cfg.Explore {
		if g.est, err = bandit.NewTemporalEstimator(cfg.Streams, cfg.Window); err != nil {
			return nil, err
		}
	}
	if cfg.Breaker != nil {
		g.breakers = newBreakerSet(cfg.Streams, *cfg.Breaker)
	}
	if cfg.OnlineLR > 0 {
		g.trainer = predictor.NewTrainer(cfg.Predictor, cfg.OnlineLR)
	}
	return g, nil
}

// beginRound is the dense form of beginRoundSparse: it advances every
// breaker, idle ones included, and fills the quarantine mask for all
// streams, like the eager tick-every-breaker-every-round formulation.
func (s *breakerSet) beginRound(pkts []*codec.Packet) []bool {
	var nonIdle []int32
	for i := range s.bs {
		if i < len(pkts) && pkts[i] != nil {
			nonIdle = append(nonIdle, int32(i))
		}
	}
	quar := s.beginRoundSparse(nonIdle)
	for i := range s.bs {
		b := &s.bs[i]
		s.fastForward(b, s.round)
		if b.state == BreakerOpen && !quar[i] {
			quar[i] = true
			s.qlist = append(s.qlist, int32(i))
		}
	}
	return quar
}

// admits is the degradation ladder's admission rule (Config.Governor).
func (g *refGate) admits(mode overload.Mode, i int, p *codec.Packet) bool {
	switch mode {
	case overload.ModeKeyframeOnly:
		return p.Type.Independent()
	case overload.ModeShed:
		return p.Type.Independent() && (g.cfg.Priorities == nil || g.cfg.Priorities[i] == 0)
	}
	return true
}

// Decide is one round of Algorithm 1 over all m streams.
func (g *refGate) Decide(pkts []*codec.Packet) ([]int, error) {
	m := g.cfg.Streams
	bEff, mode := g.cfg.Budget, overload.ModeFull
	if g.cfg.Planner != nil {
		bEff, mode = g.cfg.Planner.Plan()
	}
	quar := make([]bool, m)
	if g.breakers != nil {
		quar = g.breakers.beginRound(pkts)
	}

	// Observe every trusted packet; the admitted ones are the candidates.
	conf, cost := make([]float64, m), make([]float64, m)
	temporal, bonus := make([]float64, m), make([]float64, m)
	var active []int
	nonIdle := 0
	for i, p := range pkts {
		if p == nil {
			continue
		}
		nonIdle++
		if quar[i] {
			continue
		}
		g.store.Push(i, p)
		if g.est != nil {
			temporal[i], bonus[i] = g.est.Exploit(i), g.est.Bonus(i)
		}
		cost[i] = g.cfg.Costs.Of(p.Type)
		if *g.cfg.DependencyAware {
			cost[i] = g.trackers[i].Cost(p)
		}
		if g.admits(mode, i, p) {
			active = append(active, i)
		}
	}

	// Confidence: the network over every candidate with a trustworthy
	// window (full mode only), the temporal estimate otherwise; then the
	// exploration bonus.
	contextual := g.cfg.Predictor != nil && mode == overload.ModeFull
	var feats []predictor.Features
	var scored []int
	kept := map[int]predictor.Features{}
	for _, i := range active {
		if !contextual || (g.breakers != nil && g.store.Poisoned(i)) {
			conf[i] = temporal[i]
			continue
		}
		t := 0.0
		if g.cfg.UseTemporal {
			t = temporal[i]
		}
		f := g.store.Features(i, t)
		feats, scored = append(feats, f), append(scored, i)
		if g.trainer != nil {
			kept[i] = f.Clone()
		}
	}
	if len(feats) > 0 {
		tasks := g.cfg.Predictor.Config().Tasks
		out := make([]float64, len(feats)*tasks)
		if err := g.forward(feats, out); err != nil {
			return nil, err
		}
		for k, i := range scored {
			row := out[k*tasks : (k+1)*tasks]
			if g.cfg.TaskIndex != AllTasks {
				conf[i] = row[g.cfg.TaskIndex]
				continue
			}
			for _, v := range row { // any co-deployed model may need the packet
				if v > conf[i] {
					conf[i] = v
				}
			}
		}
	}
	if *g.cfg.Explore {
		for _, i := range active {
			conf[i] += bonus[i]
		}
	}

	// Select: sort the dense array from scratch and take by ratio while the
	// budget lasts — in one pool, or tier by tier under priorities.
	items := make([]knapsack.Item, m)
	for _, i := range active {
		items[i] = knapsack.Item{Value: conf[i], Cost: cost[i]}
	}
	tiers, numTiers := g.cfg.Priorities, 1
	if tiers == nil {
		tiers = make([]uint8, m)
	}
	for _, t := range tiers {
		numTiers = max(numTiers, int(t)+1)
	}
	sel := g.tiered.SelectAppend(nil, items, tiers, numTiers, bEff)

	// Commit every packet to its tracker, count, and queue for feedback.
	selected := make([]bool, m)
	var spent float64
	for _, i := range sel {
		selected[i] = true
		spent += cost[i]
	}
	if *g.cfg.DependencyAware {
		for i, p := range pkts {
			if p != nil {
				g.trackers[i].Commit(p, selected[i])
			}
		}
	}
	rec := &trace.Round{T: g.stats.Rounds, Budget: bEff, Spent: spent, Mode: mode.String()}
	for _, i := range active {
		rec.Decisions = append(rec.Decisions, trace.Decision{Stream: i, Type: pkts[i].Type.String(),
			Size: pkts[i].Size, Confidence: conf[i], Cost: cost[i], Selected: selected[i]})
	}
	g.stats.Rounds++
	g.stats.Packets += int64(nonIdle)
	g.stats.Decoded += int64(len(sel))
	g.stats.CostSpent += spent
	g.pending = append(g.pending, refRound{feats: kept, trace: rec})
	return sel, nil
}

// Feedback is FeedbackFull without failures or deferrals.
func (g *refGate) Feedback(selected []int, necessary []bool) error {
	return g.FeedbackFull(selected, necessary, nil, nil)
}

// FeedbackFull settles the oldest round: an m-length push into the
// estimator, outcomes into the breakers, verified labels to the trainer.
func (g *refGate) FeedbackFull(selected []int, necessary, failed, deferred []bool) error {
	pr := g.pending[0]
	g.pending = g.pending[1:]
	on, reward := make([]bool, g.cfg.Streams), make([]float64, g.cfg.Streams)
	byStream := map[int]*trace.Decision{}
	for d := range pr.trace.Decisions {
		byStream[pr.trace.Decisions[d].Stream] = &pr.trace.Decisions[d]
	}
	for k, i := range selected {
		isFailed, isDeferred := failed != nil && failed[k], deferred != nil && deferred[k]
		dec := byStream[i]
		dec.Necessary, dec.Failed, dec.Deferred = necessary[k] && !isDeferred, isFailed, isDeferred
		if isDeferred {
			continue // outcome unknown: the stream counts as passed over
		}
		on[i] = true
		if necessary[k] {
			reward[i] = 1
		}
		if g.breakers != nil {
			g.breakers.outcome(i, isFailed)
		}
		if f, ok := pr.feats[i]; ok && !isFailed && g.trainer != nil {
			labels := make([]float64, g.cfg.Predictor.Config().Tasks)
			for t := range labels {
				labels[t] = math.NaN() // only this gate's head gets a label
			}
			labels[g.cfg.TaskIndex] = reward[i]
			g.buffer = append(g.buffer, predictor.Sample{F: f, Labels: labels})
		}
	}
	if g.est != nil {
		if err := g.est.Push(on, reward); err != nil {
			return err
		}
	}
	if g.trainer != nil && len(g.buffer) >= g.cfg.OnlineBatch {
		if _, err := g.trainer.Step(g.buffer); err != nil {
			return err
		}
		g.buffer = nil
	}
	if g.cfg.Trace != nil {
		return g.cfg.Trace.Write(*pr.trace)
	}
	return nil
}

// Breakers mirrors Gate.Breakers.
func (g *refGate) Breakers() []BreakerSnapshot {
	if g.breakers == nil {
		return nil
	}
	return g.breakers.snapshots()
}
