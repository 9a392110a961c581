// Package core implements the paper's primary contribution: the
// multi-stream packet gating algorithm (Alg. 1). Each round the Gate takes
// one parsed packet per stream, scores it with the temporal estimator (§5.1)
// and the contextual predictor (§5.2), selects a budget-feasible subset with
// the combinatorial optimizer (§5.3), and later consumes the redundancy
// feedback of the decoded packets to update its state.
//
// Round cost scales with churn, not fleet size: every per-round loop walks
// the streams that delivered a packet (and, for the network forward, only
// the subset whose feature windows actually changed — the rest replay from
// the score cache), so a 100k-stream fleet where 1% of windows move per
// round pays roughly 1% of the dense recompute. The package's property tests
// hold that to a reference gate that recomputes everything every round; the
// two paths are bit-identical.
package core

import (
	"fmt"
	"math"
	"sync"

	"packetgame/internal/bandit"
	"packetgame/internal/codec"
	"packetgame/internal/decode"
	"packetgame/internal/knapsack"
	"packetgame/internal/metrics"
	"packetgame/internal/overload"
	"packetgame/internal/predictor"
	"packetgame/internal/trace"
)

// Config parameterizes a Gate.
type Config struct {
	// Streams is the number of concurrent streams m.
	Streams int
	// Window is the temporal window length w (default 5).
	Window int
	// Budget is the per-round decoding budget B in decode units. A budget
	// below Costs.I starves every stream: no keyframe is ever affordable,
	// and predicted frames owe their reference chains on top.
	Budget float64
	// Costs is the decode cost model (default decode.DefaultCosts).
	Costs decode.CostModel
	// Predictor is the trained contextual predictor. Nil yields the
	// "Temporal" ablation: confidence comes from the estimator alone.
	Predictor *predictor.Predictor
	// TaskIndex selects the predictor output head (multi-task models).
	// Set to AllTasks to gate on the maximum confidence across heads: a
	// packet is worth decoding if any of the co-deployed models needs it
	// (the smart-city multi-model deployment of §5.2).
	TaskIndex int
	// UseTemporal enables the temporal estimator. Disabling it (with a
	// predictor present) yields the "Contextual" ablation of Table 3.
	UseTemporal bool
	// Explore adds the UCB exploration bonus to the final confidence,
	// preserving the regret guarantee (§5.4). Defaults to the value of
	// UseTemporal.
	Explore *bool
	// Selector is the combinatorial optimizer. Nil selects the built-in
	// ranked solve: the paper's greedy (tiered under Priorities), kept
	// ordered across rounds so a round re-ranks only the streams whose value
	// or cost moved. A custom Selector is handed the round's active
	// candidates — the admitted, non-quarantined streams, ascending, each
	// with its confidence and dependency-inclusive cost — and the round's
	// effective budget, and returns the streams to decode.
	Selector knapsack.Selector
	// DependencyAware folds undecoded reference chains into packet costs
	// (Fig 6). Disabling it is a design ablation: costs become the bare
	// per-picture-type costs. Default true.
	DependencyAware *bool
	// OnlineLR enables online fine-tuning of the predictor from live
	// redundancy feedback (the paper's stated future work, §5.2): every
	// OnlineBatch feedback samples trigger one RMSprop step at this
	// learning rate. 0 disables (the paper's frozen-weights deployment).
	OnlineLR float64
	// OnlineBatch is the minibatch size for online updates (default 64).
	OnlineBatch int
	// MaxPending is the number of decided-but-unacked rounds the gate
	// tolerates before Decide fails. The default 1 enforces the paper's
	// strict Decide/Feedback alternation; the pipelined engine raises it
	// to its in-flight round bound. Feedback always acks the oldest
	// pending round, so UCB windows never observe out-of-order rewards.
	MaxPending int
	// Breaker, when non-nil, arms per-stream circuit breakers: streams
	// whose decodes keep failing (or that disappear for longer than the
	// gap threshold) are quarantined out of Decide until a half-open probe
	// succeeds, and streams with poisoned metadata windows (NaN or
	// zero-size runs) degrade from the contextual predictor to the
	// temporal-only estimate. The budget a quarantined stream would have
	// consumed flows to the healthy streams through the optimizer, which
	// preserves the Lemma-1 1−c/B bound over the healthy subset. Nil
	// keeps the fault-oblivious behavior (bit-identical decisions to
	// earlier versions).
	Breaker *BreakerConfig
	// Priorities assigns each stream an admission-control tier (0 =
	// highest, e.g. fire detection). When set it must have length Streams
	// and switches the built-in solve to the strict-priority tiered cascade:
	// low tiers are shed first when the effective budget shrinks, and a
	// quarantined stream's freed budget flows to its own tier before
	// cascading down. Incompatible with a custom Selector. Nil keeps the
	// single-pool greedy solve.
	Priorities []uint8
	// Governor, when non-nil, closes the overload control loop: each
	// Decide plans against the governor's current effective budget B_eff
	// (instead of the fixed Budget) and degradation mode — full →
	// temporal-only (contextual predictor skipped) → keyframe-only (only
	// I-packets admitted) → shed (only tier-0 I-packets admitted). The
	// caller feeds observed round latencies into the governor; streams
	// refused admission by a brownout mode are simply not selected, which
	// the temporal estimator already treats as "no evidence" — load
	// shedding never fabricates necessity labels.
	Governor *overload.Governor
	// Overload, when non-nil, receives admission-control counters (packets
	// shed by brownout modes, feedback slots settled as deferred).
	Overload *metrics.OverloadStats
	// Planner, when non-nil, overrides Governor as the source of the
	// per-round effective budget and degradation mode. Replay audits use
	// an overload.Scripted planner here to pin each round to the recorded
	// run's overload state instead of re-running the control loop.
	Planner overload.Planner
	// Trace, when non-nil, records every round's confidences, costs, and
	// decisions as an audit trail (written at Feedback time, once
	// redundancy outcomes are known). *trace.Writer streams JSON Lines; a
	// capture recorder embeds the same records next to the packets.
	Trace trace.Sink
}

func (c Config) withDefaults() (Config, error) {
	if c.Streams <= 0 {
		return c, fmt.Errorf("core: Streams must be positive, got %d", c.Streams)
	}
	if c.Budget <= 0 {
		return c, fmt.Errorf("core: Budget must be positive, got %v", c.Budget)
	}
	if c.Window == 0 {
		c.Window = 5
	}
	if c.Costs == (decode.CostModel{}) {
		c.Costs = decode.DefaultCosts
	}
	if len(c.Priorities) != 0 {
		if len(c.Priorities) != c.Streams {
			return c, fmt.Errorf("core: %d priorities for %d streams", len(c.Priorities), c.Streams)
		}
		if c.Selector != nil {
			return c, fmt.Errorf("core: Priorities require the built-in tiered solve and cannot combine with a custom Selector")
		}
	}
	if c.Predictor == nil && !c.UseTemporal {
		return c, fmt.Errorf("core: need a predictor, the temporal estimator, or both")
	}
	if c.Explore == nil {
		e := c.UseTemporal
		c.Explore = &e
	}
	if c.DependencyAware == nil {
		d := true
		c.DependencyAware = &d
	}
	if c.OnlineLR > 0 && c.Predictor == nil {
		return c, fmt.Errorf("core: online learning requires a predictor")
	}
	if c.OnlineBatch == 0 {
		c.OnlineBatch = 64
	}
	if c.MaxPending < 0 {
		return c, fmt.Errorf("core: MaxPending must be non-negative, got %d", c.MaxPending)
	}
	if c.MaxPending == 0 {
		c.MaxPending = 1
	}
	if c.Predictor != nil {
		pc := c.Predictor.Config()
		if pc.Window != c.Window {
			return c, fmt.Errorf("core: predictor window %d != gate window %d", pc.Window, c.Window)
		}
		if c.TaskIndex != AllTasks && (c.TaskIndex < 0 || c.TaskIndex >= pc.Tasks) {
			return c, fmt.Errorf("core: task index %d out of range for %d-task predictor", c.TaskIndex, pc.Tasks)
		}
		if c.TaskIndex == AllTasks && c.OnlineLR > 0 {
			return c, fmt.Errorf("core: online learning needs a concrete TaskIndex, not AllTasks")
		}
	}
	return c, nil
}

// AllTasks is a TaskIndex sentinel: aggregate confidence as the maximum
// over all predictor heads.
const AllTasks = -1

// Stats aggregates a Gate's lifetime counters.
type Stats struct {
	Rounds    int64
	Packets   int64 // non-idle packets observed
	Decoded   int64 // packets selected for decoding
	CostSpent float64
}

// IncrementalStats counts the scoring work the churn-scaled Decide path
// actually performed. Scored is the stream-rounds that needed a confidence
// (admitted, non-quarantined); every one was served either by a network
// forward (Forwards) or by the score cache (CacheHits), so
// Scored = Forwards + CacheHits + temporal-only degradations.
type IncrementalStats struct {
	Scored    int64
	Forwards  int64
	CacheHits int64
}

// pendingRound is one decided round awaiting its redundancy feedback. Its
// buffers come from the gate's free lists and return there when the round
// retires, so steady-state rounds recycle rather than allocate.
type pendingRound struct {
	sel   []int // decode set, as returned by Decide
	trace *trace.Round
	// feats maps stream index to the features used for the decision,
	// retained (cloned into slab) only when online learning is on.
	feats map[int]predictor.Features
	slab  *predictor.Slab
}

// Gate is the PacketGame plug-in between parser and decoder.
//
// Concurrency: one mutex guards all of the gate's state and every exported
// method takes it once, so every method is safe to call from any goroutine
// and calls serialize — Decide against Feedback included. Algorithm 1 is a
// strict per-round alternation and the engine calls both from its gate loop,
// so nothing in the tree runs them side by side; a reader (Stats, Pending,
// Confidence, ...) waits out a round in progress. Feedback acks pending
// rounds strictly in decision order (FIFO), which keeps the UCB reward
// windows ordered even when rounds complete out of order downstream. Up to
// Config.MaxPending rounds may be awaiting feedback.
type Gate struct {
	cfg Config

	// mu guards every field below. Exported methods lock it; unexported
	// ones are called with it held and never lock.
	mu sync.Mutex

	// Per-stream state, indexed by stream id: the temporal estimator (nil
	// when neither the temporal term nor the exploration bonus is enabled),
	// the contextual predictor's feature store (size rings, poison counters,
	// and the feature epochs the score cache keys on), and the GOP
	// dependency trackers (Fig 6).
	est      *bandit.TemporalEstimator
	store    *predictor.Store
	trackers *decode.MultiTracker

	// breakers is the per-stream circuit-breaker set (nil when disabled).
	breakers *breakerSet

	// pending is the FIFO of unacked rounds, oldest first; it never holds
	// more than maxPending (the in-flight depth), so retiring shifts it
	// down. Retired rounds recycle their buffers through the free lists
	// below.
	pending    []pendingRound
	maxPending int
	freeSel    [][]int
	freeFeats  []map[int]predictor.Features

	// Decision scratch. The per-stream arrays (conf, costs,
	// temporal, bonus, degraded, selected) are m-length but only the entries
	// of the streams a round sweeps are written; `sweep` still lists them when
	// the next round starts, which resets exactly those — every other entry
	// is still at its zero value, making the reset equivalent to the dense
	// full-array zeroing without the O(m) walk.
	feats    []predictor.Features
	active   []int     // admitted streams, ascending (scored this round)
	fresh    []int     // active subset re-scored through the network
	sweep    []int32   // non-quarantined non-idle (windows advance)
	pushIDs  []int32   // feedback scratch: the round's selections ...
	pushRew  []float64 // ... and their rewards, for the estimator
	conf     []float64
	costs    []float64
	temporal []float64
	bonus    []float64
	predOut  []float64            // [len(fresh) × tasks] confidences, row-major
	selOut   []int                // the round's selection
	selected []bool               // all-false between rounds
	degraded []bool               // poisoned-window streams scored temporal-only this round
	tasks    int                  // predictor head count (0 without a predictor)
	cands    []knapsack.Candidate // custom-Selector candidate scratch (active streams only)
	shim     codec.Round          // the dense shims' round (empty between rounds)

	// ranked is the built-in solve: the persistent score-ordered candidate
	// structure (nil with a custom Selector). The cache arrays (allocated
	// with a predictor) memoize the network confidence per stream, keyed by
	// (feature epoch, temporal input, weights version).
	ranked       *knapsack.Ranked
	cacheConf    []float64
	cacheEpoch   []uint64
	cacheTemp    []float64
	cachePredVer []uint64
	cacheValid   []bool
	incStats     IncrementalStats

	// Tiered admission control (Config.Priorities). tiers is the per-stream
	// tier table, fixed at construction; numTiers is 1 without priorities.
	tiers    []uint8
	numTiers int

	// warmTarget, when allocated (first fresh import), marks streams
	// adopted without transferred state: entry i > 0 degrades stream i to
	// the temporal-only estimate until its feature store reaches that many
	// pushes.
	warmTarget []int64

	// Online learning (OnlineLR > 0). The slab backs buffered samples and
	// resets after every trainer step.
	trainer   *predictor.Trainer
	buffer    []predictor.Sample
	trainSlab *predictor.Slab

	stats Stats
}

// NewGate builds a gate from the config.
func NewGate(cfg Config) (*Gate, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	g := &Gate{
		cfg:        cfg,
		store:      predictor.NewStore(cfg.Streams, cfg.Window),
		trackers:   decode.NewMultiTracker(cfg.Streams, cfg.Costs),
		maxPending: cfg.MaxPending,
		conf:       make([]float64, cfg.Streams),
		costs:      make([]float64, cfg.Streams),
		temporal:   make([]float64, cfg.Streams),
		bonus:      make([]float64, cfg.Streams),
		selected:   make([]bool, cfg.Streams),
		degraded:   make([]bool, cfg.Streams),
		numTiers:   1,
	}
	if cfg.UseTemporal || *cfg.Explore {
		if g.est, err = bandit.NewTemporalEstimator(cfg.Streams, cfg.Window); err != nil {
			return nil, err
		}
	}
	if len(cfg.Priorities) != 0 {
		for _, t := range cfg.Priorities {
			if int(t)+1 > g.numTiers {
				g.numTiers = int(t) + 1
			}
		}
		g.tiers = append([]uint8(nil), cfg.Priorities...)
	}
	if cfg.Predictor != nil {
		g.tasks = cfg.Predictor.Config().Tasks
		if err := cfg.Predictor.Compile(); err != nil {
			return nil, fmt.Errorf("core: compiling inference fast path: %w", err)
		}
		g.cacheConf = make([]float64, cfg.Streams)
		g.cacheEpoch = make([]uint64, cfg.Streams)
		g.cacheTemp = make([]float64, cfg.Streams)
		g.cachePredVer = make([]uint64, cfg.Streams)
		g.cacheValid = make([]bool, cfg.Streams)
	}
	if cfg.Selector == nil {
		g.ranked = knapsack.NewRanked(cfg.Streams)
	}
	if cfg.OnlineLR > 0 {
		g.trainer = predictor.NewTrainer(cfg.Predictor, cfg.OnlineLR)
		g.trainSlab = &predictor.Slab{}
	}
	if cfg.Breaker != nil {
		g.breakers = newBreakerSet(cfg.Streams, *cfg.Breaker)
	}
	return g, nil
}

// Breakers returns every stream's circuit-breaker snapshot, or nil when
// Config.Breaker is unset.
func (g *Gate) Breakers() []BreakerSnapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.breakers == nil {
		return nil
	}
	return g.breakers.snapshots()
}

// Quarantined returns the number of streams whose breaker is currently open.
func (g *Gate) Quarantined() int {
	n := 0
	for _, b := range g.Breakers() {
		if b.State == BreakerOpen {
			n++
		}
	}
	return n
}

// Config returns the gate's effective configuration.
func (g *Gate) Config() Config { return g.cfg }

// Stats returns the lifetime counters.
func (g *Gate) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// Incremental returns the churn-scaled path's lifetime work counters.
func (g *Gate) Incremental() IncrementalStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.incStats
}

// Pending returns the number of decided rounds still awaiting feedback.
func (g *Gate) Pending() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.pending)
}

// SetMaxPending raises (or lowers, min 1) the decided-but-unacked round
// bound. The pipelined engine calls this with its MaxInFlight depth.
func (g *Gate) SetMaxPending(k int) {
	if k < 1 {
		k = 1
	}
	g.mu.Lock()
	g.maxPending = k
	g.mu.Unlock()
}

// DecideSparseAppend runs one gating round over r, the streams that
// delivered a packet (ids strictly ascending, every id below
// Config.Streams), and appends the indices of the streams whose packets
// should be decoded to dst (which may be nil: a caller that recycles dst
// pays no allocation for the result). The round costs O(len(r.IDs)), not
// O(m). At most MaxPending rounds may be outstanding: with the default of 1,
// FeedbackFull must close a round before the next one is decided. An invalid
// round is rejected before any state moves; on error the result is nil.
func (g *Gate) DecideSparseAppend(r *codec.Round, dst []int) ([]int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.decideLocked(r, dst)
}

// DecideAppend decides a dense round: pkts[i] is stream i's packet, nil when
// it is idle. O(m) per round. It and DecideRoundAppend are kept only because
// the ledger probe (benchmark/probe.go) wraps them; everything else hands the
// gate a codec.Round. Both fill the gate's own round and empty it again
// before returning, so the gate holds no packet pointer between rounds.
func (g *Gate) DecideAppend(pkts []*codec.Packet, dst []int) ([]int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	defer g.shim.Reset(0)
	g.shim.FromDense(pkts)
	return g.decideLocked(&g.shim, dst)
}

// DecideRoundAppend decides the streams nonIdle lists (strictly ascending,
// each with a packet in pkts).
func (g *Gate) DecideRoundAppend(pkts []*codec.Packet, nonIdle []int32, dst []int) ([]int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	defer g.shim.Reset(0)
	g.shim.Reset(len(pkts))
	for _, i := range nonIdle {
		var p *codec.Packet // an id out of range stays nil for Validate to name
		if i >= 0 && int(i) < len(pkts) {
			p = pkts[i]
		}
		g.shim.Append(i, p)
	}
	return g.decideLocked(&g.shim, dst)
}

// round is what one Decide threads through its five phases.
type round struct {
	*codec.Round         // the round's packets: IDs ascending, Pkts parallel
	bEff         float64 // effective budget the round plans against
	mode         overload.Mode
	pend         pendingRound // the round's feedback record, filled in as it goes
}

// decideLocked is Algorithm 1's round: plan → sweep → score → select →
// commit. The selection is appended to dst; on error the result is nil.
func (g *Gate) decideLocked(in *codec.Round, dst []int) ([]int, error) {
	r, err := g.planRound(in)
	if err != nil {
		return nil, err
	}
	g.sweepRound(&r)
	if err := g.scoreRound(&r); err != nil {
		return nil, err
	}
	g.selectRound(&r)
	g.commitRound(&r)
	return append(dst, g.selOut...), nil
}

// planRound admits the round: it checks the round's width and invariants and
// the pending-round bound, then asks the overload planner or governor (when
// armed) for the effective budget and degradation mode the round runs with
// instead of the fixed nominal budget.
func (g *Gate) planRound(in *codec.Round) (round, error) {
	if in.M != g.cfg.Streams {
		return round{}, fmt.Errorf("core: round width %d for %d streams", in.M, g.cfg.Streams)
	}
	if err := in.Validate(); err != nil {
		return round{}, err
	}
	if n := len(g.pending); n >= g.maxPending {
		return round{}, fmt.Errorf("core: Decide called with %d unacked rounds (MaxPending %d): Feedback must close the oldest round first", n, g.maxPending)
	}
	r := round{Round: in, bEff: g.cfg.Budget, mode: overload.ModeFull}
	if g.cfg.Planner != nil {
		r.bEff, r.mode = g.cfg.Planner.Plan()
	} else if g.cfg.Governor != nil {
		r.bEff, r.mode = g.cfg.Governor.Plan()
	}
	return r, nil
}

// sweepRound advances the circuit breakers (when armed) and folds packet
// metadata into the per-stream feature store, reading the per-stream state
// (temporal estimate, exploration bonus, dependency-inclusive cost) in the
// same pass over the round's ids. Quarantined streams are observed but
// excluded: their windows stay frozen (untrusted metadata), their packets
// never enter the selection, and the budget they would have consumed flows to
// the healthy streams. Brownout modes shed packets at admission here too —
// shed streams still push their (trusted) windows so context stays warm for
// recovery, but they are excluded from scoring and selection. What is left is
// g.active: the round's candidates.
func (g *Gate) sweepRound(r *round) {
	// Reset the per-stream scratch entries the previous round wrote; all
	// other entries still hold their zero values.
	for _, i := range g.sweep {
		g.conf[i] = 0
		g.costs[i] = 0
		g.temporal[i] = 0
		g.bonus[i] = 0
		g.degraded[i] = false
	}

	var quar []bool
	if g.breakers != nil {
		quar = g.breakers.beginRoundSparse(r.IDs)
	}
	g.sweep = g.sweep[:0]
	g.active = g.active[:0]
	shedCount := 0
	depAware := *g.cfg.DependencyAware
	for k, i32 := range r.IDs {
		i := int(i32)
		if quar != nil && quar[i] {
			continue
		}
		g.sweep = append(g.sweep, i32)
		p := r.Pkts[k]
		g.store.Push(i, p)
		if g.est != nil {
			g.temporal[i] = g.est.Exploit(i)
			g.bonus[i] = g.est.Bonus(i)
		}
		if depAware {
			g.costs[i] = g.trackers.Stream(i).Cost(p)
		} else {
			g.costs[i] = g.cfg.Costs.Of(p.Type)
		}
		if !g.admit(r.mode, i, p) {
			shedCount++
			continue
		}
		g.active = append(g.active, i)
	}
	if shedCount > 0 {
		g.cfg.Overload.AddShed(int64(shedCount))
	}
}

// scoreRound sets every active stream's confidence: the contextual
// predictor fused with the temporal estimate, plus the exploration bonus
// (Alg. 1 line 5-6). Brownout modes below full skip the predictor entirely
// — the temporal-only rung is exactly the poisoned-window degradation
// applied fleet-wide, and the deeper rungs inherit it — which also suspends
// online-training retention (no predictor features were used, so there is
// nothing truthful to train on).
func (g *Gate) scoreRound(r *round) error {
	if g.cfg.Predictor != nil && r.mode == overload.ModeFull {
		if err := g.scoreContextual(); err != nil {
			return err
		}
		if g.trainer != nil {
			g.retainFeatures(r)
		}
	} else {
		for _, i := range g.active {
			g.conf[i] = g.temporal[i]
		}
	}
	if *g.cfg.Explore {
		for _, i := range g.active {
			g.conf[i] += g.bonus[i]
		}
	}
	return nil
}

// temporalInput is the temporal estimate the predictor sees for stream i.
func (g *Gate) temporalInput(i int) float64 {
	if g.cfg.UseTemporal {
		return g.temporal[i]
	}
	return 0
}

// scoreContextual runs the network for the active streams. Streams whose
// score-cache key still matches — feature epoch, temporal input, and
// predictor weights version all unchanged — reuse their cached network
// confidence; only the rest (`fresh`) run through the compiled batched
// forward, whose kernels are row-independent, so the partial batch is
// bit-identical to scoring everyone.
func (g *Gate) scoreContextual() error {
	pVer := g.cfg.Predictor.Version()
	g.feats = g.feats[:0]
	g.fresh = g.fresh[:0]
	for _, i := range g.active {
		// Fault-aware gates degrade streams whose metadata windows are
		// poisoned to the temporal-only estimate instead of trusting the
		// network on garbage input.
		if g.breakers != nil && g.store.Poisoned(i) {
			g.degraded[i] = true
			g.conf[i] = g.temporal[i]
			continue
		}
		// Streams adopted without transferred state (fresh import after a
		// lost migration) stay temporal-only until their feature windows
		// refill: the predictor never scores cold windows.
		if g.warmTarget != nil && g.warmTarget[i] > 0 {
			if g.store.Pushes(i) >= g.warmTarget[i] {
				g.warmTarget[i] = 0
			} else {
				g.degraded[i] = true
				g.conf[i] = g.temporal[i]
				continue
			}
		}
		t := g.temporalInput(i)
		if g.cacheValid[i] && g.cacheEpoch[i] == g.store.Epoch(i) &&
			g.cacheTemp[i] == t && g.cachePredVer[i] == pVer {
			g.conf[i] = g.cacheConf[i]
			g.incStats.CacheHits++
			continue
		}
		g.cacheValid[i] = false
		g.cacheEpoch[i] = g.store.Epoch(i)
		g.cacheTemp[i] = t
		g.cachePredVer[i] = pVer
		g.fresh = append(g.fresh, i)
		g.feats = append(g.feats, g.store.Features(i, t))
	}
	g.incStats.Scored += int64(len(g.active))
	g.incStats.Forwards += int64(len(g.fresh))
	if len(g.feats) == 0 {
		return nil
	}
	if cap(g.predOut) < len(g.feats)*g.tasks {
		g.predOut = make([]float64, len(g.feats)*g.tasks)
	}
	preds := g.predOut[:len(g.feats)*g.tasks]
	if err := g.cfg.Predictor.PredictInto(g.feats, preds); err != nil {
		return fmt.Errorf("core: fast-path inference: %w", err)
	}
	for k, i := range g.fresh {
		net := headConfidence(preds[k*g.tasks:(k+1)*g.tasks], g.cfg.TaskIndex)
		g.conf[i] = net
		g.cacheConf[i] = net
		g.cacheValid[i] = true
	}
	return nil
}

// headConfidence reads one stream's confidence off its row of predictor
// outputs: the configured head, or with AllTasks the maximum over heads.
func headConfidence(row []float64, task int) float64 {
	if task != AllTasks {
		return row[task]
	}
	var net float64
	for _, v := range row {
		if v > net {
			net = v
		}
	}
	return net
}

// retainFeatures clones the features each active stream was scored on into
// a slab that lives until the round retires, for the online trainer.
func (g *Gate) retainFeatures(r *round) {
	r.pend.feats = g.grabFeatsMap(len(g.active))
	r.pend.slab = predictor.GetSlab()
	for _, i := range g.active {
		if g.degraded[i] {
			continue // poisoned features must not train the net
		}
		r.pend.feats[i] = r.pend.slab.CloneInto(g.store.Features(i, g.temporalInput(i)))
	}
}

// selectRound solves the knapsack over the active streams under the
// effective budget. Quarantined and brownout-shed streams are not among
// them, so their budget flows to the healthy streams. The built-in ranked
// structure re-ranks only the streams whose (value, cost) moved since their
// last offer and merges them into its persistent order — linear in the moved
// streams plus the merge, provably the same selection as the from-scratch
// greedy/tiered sort (knapsack tests). With Explore on the bonus moves every
// active stream's value every round, so "moved" is the whole active set and
// the round is one radix sort of it (knapsack/order.go), not a comparison
// sort. A configured Selector gets the active set as a candidate list.
func (g *Gate) selectRound(r *round) {
	if g.ranked != nil {
		g.ranked.BeginRound()
		for _, i := range g.active {
			var tier uint8
			if g.tiers != nil {
				tier = g.tiers[i]
			}
			g.ranked.Offer(i, g.conf[i], g.costs[i], tier)
		}
		g.selOut = g.ranked.SelectAppend(g.selOut[:0], g.numTiers, r.bEff)
		return
	}
	g.cands = g.cands[:0]
	for _, i := range g.active {
		g.cands = append(g.cands, knapsack.Candidate{Stream: int32(i), Value: g.conf[i], Cost: g.costs[i]})
	}
	g.selOut = g.cfg.Selector.Select(g.selOut[:0], g.cands, r.bEff)
}

// commitRound commits the decisions to the dependency trackers, then
// enqueues the round on the feedback FIFO and updates the counters. Every
// non-idle packet commits — including quarantined and shed ones (as
// unselected), which keeps reference-chain debts truthful. With
// dependency-aware costing off the trackers have no consumer (sweepRound
// took the bare per-type cost), so that pass is skipped — an O(m) saving per
// round that cannot affect any decision.
func (g *Gate) commitRound(r *round) {
	sel := g.selOut
	var spent float64
	for _, i := range sel {
		g.selected[i] = true
		spent += g.costs[i]
	}
	if *g.cfg.DependencyAware {
		for k, i := range r.IDs {
			g.trackers.Stream(int(i)).Commit(r.Pkts[k], g.selected[i])
		}
	}

	r.pend.sel = append(g.grabSel(), sel...)
	if g.cfg.Trace != nil {
		rec := &trace.Round{T: g.stats.Rounds, Budget: r.bEff, Spent: spent, Mode: r.mode.String()}
		k := 0 // the active set is an ascending subset of the round's ids
		for _, i := range g.active {
			for int(r.IDs[k]) != i {
				k++
			}
			rec.Decisions = append(rec.Decisions, trace.Decision{
				Stream:     i,
				Type:       r.Pkts[k].Type.String(),
				Size:       r.Pkts[k].Size,
				Confidence: g.conf[i],
				Cost:       g.costs[i],
				Selected:   g.selected[i],
			})
		}
		r.pend.trace = rec
	}
	g.stats.Rounds++
	g.stats.Packets += int64(len(r.IDs))
	g.stats.Decoded += int64(len(sel))
	g.stats.CostSpent += spent
	g.pending = append(g.pending, r.pend)
	// Restore the all-false invariant on the selection mask.
	for _, i := range sel {
		g.selected[i] = false
	}
}

// admit applies the degradation ladder's admission rule to one packet:
// keyframe-only admits independent pictures, shed admits only top-tier
// (priority 0) independent pictures. Without Priorities every stream is
// tier 0, so shed degenerates to keyframe-only.
func (g *Gate) admit(mode overload.Mode, i int, p *codec.Packet) bool {
	switch mode {
	case overload.ModeKeyframeOnly:
		return p.Type.Independent()
	case overload.ModeShed:
		return p.Type.Independent() && (g.tiers == nil || g.tiers[i] == 0)
	default:
		return true
	}
}

// grabSel / grabFeatsMap recycle retired pending-round buffers.
func (g *Gate) grabSel() []int {
	if n := len(g.freeSel); n > 0 {
		s := g.freeSel[n-1]
		g.freeSel = g.freeSel[:n-1]
		return s[:0]
	}
	return nil
}

func (g *Gate) grabFeatsMap(sizeHint int) map[int]predictor.Features {
	if n := len(g.freeFeats); n > 0 {
		m := g.freeFeats[n-1]
		g.freeFeats = g.freeFeats[:n-1]
		return m
	}
	return make(map[int]predictor.Features, sizeHint)
}

// Confidence returns the confidence computed for stream i in the most
// recent round that scored it (diagnostic).
func (g *Gate) Confidence(i int) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if i < 0 || i >= g.cfg.Streams {
		return 0
	}
	return g.conf[i]
}

// FeedbackFull acks the oldest pending round: necessary[k] is the redundancy
// feedback for stream selected[k] (aligned with that round's decision).
// Rounds must be acked in decision order; the gate verifies the ack against
// the queued round so out-of-order or mismatched feedback fails fast instead
// of corrupting the UCB reward windows.
//
// failed[k] marks a selection whose decode never produced a frame (poison
// pill, exhausted retries). Failed selections drive the circuit breakers, are
// excluded from online training (their labels are unverified), and carry
// whatever conservative necessary[k] the pipeline settled on so the UCB
// reward windows stay well-defined over partial rounds.
//
// deferred[k] marks a selection the pipeline abandoned to meet a round
// deadline. A deferred slot's outcome is *unknown* — not a failure, not a
// redundancy verdict — so it must not leave a trace in any learned state: the
// slot is recorded as unselected in the temporal estimator's reward window
// (no reward, no selection count — only its age grows, exactly as if the
// optimizer had passed it over), it never reaches the online trainer, and it
// does not drive the stream's circuit breaker (the stream did nothing wrong).
// necessary[k] is ignored for deferred slots. failed and deferred may be nil
// (no failures, nothing abandoned).
//
// One deliberate approximation: the dependency tracker committed the
// selection at Decide time, so an abandoned decode leaves the tracker
// optimistic about the reference chain until the stream's next keyframe
// resets it — the GOP bounds the error window.
func (g *Gate) FeedbackFull(selected []int, necessary, failed, deferred []bool) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	a := ack{selected: selected, necessary: necessary, failed: failed, deferred: deferred}
	pr, err := g.validateAck(a)
	if err != nil {
		return err
	}
	g.foldOutcomes(a)
	if err := g.pushEstimators(a); err != nil {
		return err
	}
	if g.trainer != nil {
		if err := g.bufferSamples(a, pr.feats); err != nil {
			return err
		}
	}
	return g.retireRound(a, pr)
}

// ack is one round's feedback. failed and deferred may be nil (all false).
type ack struct {
	selected                    []int
	necessary, failed, deferred []bool
}

func (a ack) isFailed(k int) bool   { return a.failed != nil && a.failed[k] }
func (a ack) isDeferred(k int) bool { return a.deferred != nil && a.deferred[k] }

// validateAck holds the ack against the oldest pending round, which it
// returns: the flag slices must align with selected, and selected must be
// that round's Decide return value, slot for slot. A rejected ack leaves the
// round pending.
func (g *Gate) validateAck(a ack) (pendingRound, error) {
	if len(g.pending) == 0 {
		return pendingRound{}, fmt.Errorf("core: Feedback without a pending round")
	}
	pr := g.pending[0]
	n := len(a.selected)
	if n != len(a.necessary) {
		return pr, fmt.Errorf("core: %d selections with %d feedback values", n, len(a.necessary))
	}
	if a.failed != nil && len(a.failed) != n {
		return pr, fmt.Errorf("core: %d selections with %d failure flags", n, len(a.failed))
	}
	if a.deferred != nil && len(a.deferred) != n {
		return pr, fmt.Errorf("core: %d selections with %d deferral flags", n, len(a.deferred))
	}
	if n != len(pr.sel) {
		return pr, fmt.Errorf("core: feedback for %d selections, pending round selected %d", n, len(pr.sel))
	}
	for k, i := range a.selected {
		if i != pr.sel[k] {
			return pr, fmt.Errorf("core: feedback slot %d is for stream %d, pending round selected stream %d there", k, i, pr.sel[k])
		}
	}
	return pr, nil
}

// foldOutcomes folds decode outcomes into the circuit breakers: a failure
// run opens the breaker, a success closes a half-open probe. Deferred slots
// are only counted — abandoning a decode says nothing about the stream's
// health.
func (g *Gate) foldOutcomes(a ack) {
	var deferred int64
	for k, i := range a.selected {
		if a.isDeferred(k) {
			deferred++
		} else if g.breakers != nil {
			g.breakers.outcome(i, a.isFailed(k))
		}
	}
	if a.deferred != nil {
		g.cfg.Overload.AddDeferred(deferred)
	}
}

// pushEstimators pushes the round into the estimator, visiting only the
// round's selections instead of all m streams; an empty round still advances
// the estimator clock. A deferred slot is left out, which records the stream
// as unselected: that is what keeps abandoned decodes out of the UCB windows.
func (g *Gate) pushEstimators(a ack) error {
	if g.est == nil {
		return nil
	}
	g.pushIDs = g.pushIDs[:0]
	g.pushRew = g.pushRew[:0]
	for k, i := range a.selected {
		if a.isDeferred(k) {
			continue
		}
		reward := 0.0
		if a.necessary[k] {
			reward = 1
		}
		g.pushIDs = append(g.pushIDs, int32(i))
		g.pushRew = append(g.pushRew, reward)
	}
	return g.est.PushSparse(g.pushIDs, g.pushRew)
}

// bufferSamples turns the round's verified outcomes into online-training
// samples and steps the trainer once a minibatch is buffered.
func (g *Gate) bufferSamples(a ack, feats map[int]predictor.Features) error {
	for k, i := range a.selected {
		if a.isFailed(k) {
			continue // unverified label: never train on it
		}
		if a.isDeferred(k) {
			continue // abandoned decode: no label exists at all
		}
		f, ok := feats[i]
		if !ok {
			continue
		}
		// Deep-copy into the training slab: the round's own slab is
		// recycled when the round retires, but buffered samples must
		// survive until the next trainer step.
		labels := g.trainSlab.Alloc(g.tasks)
		for t := range labels {
			labels[t] = math.NaN() // only this gate's head gets a label
		}
		labels[g.cfg.TaskIndex] = 0
		if a.necessary[k] {
			labels[g.cfg.TaskIndex] = 1
		}
		g.buffer = append(g.buffer, predictor.Sample{F: g.trainSlab.CloneInto(f), Labels: labels})
	}
	if len(g.buffer) < g.cfg.OnlineBatch {
		return nil
	}
	_, err := g.trainer.Step(g.buffer)
	g.buffer = g.buffer[:0]
	g.trainSlab.Reset()
	return err
}

// retireRound writes the round's trace record, recycles its buffers, and
// advances the FIFO head.
func (g *Gate) retireRound(a ack, pr pendingRound) error {
	if pr.trace != nil {
		slot := make(map[int]int, len(a.selected))
		for k, i := range a.selected {
			slot[i] = k
		}
		for d := range pr.trace.Decisions {
			if dec := &pr.trace.Decisions[d]; dec.Selected {
				k := slot[dec.Stream]
				dec.Necessary = a.necessary[k] && !a.isDeferred(k)
				dec.Deferred = a.isDeferred(k)
				dec.Failed = a.isFailed(k)
			}
		}
		if err := g.cfg.Trace.Write(*pr.trace); err != nil {
			return err
		}
	}
	g.freeSel = append(g.freeSel, pr.sel)
	if pr.feats != nil {
		clear(pr.feats)
		g.freeFeats = append(g.freeFeats, pr.feats)
	}
	if pr.slab != nil {
		predictor.PutSlab(pr.slab)
	}
	n := copy(g.pending, g.pending[1:])
	g.pending[n] = pendingRound{}
	g.pending = g.pending[:n]
	return nil
}
