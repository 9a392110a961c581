package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync/atomic"

	"packetgame/internal/bandit"
	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/decode"
	"packetgame/internal/infer"
	"packetgame/internal/knapsack"
	"packetgame/internal/predictor"
)

// The traced run. The gate's inner layers (predictor, nn, bandit, knapsack,
// decode trackers) are private fields of core.Gate, so they cannot be
// wrapped from outside. Instead the tracer owns its own instance of each
// layer and, right after every real Decide*, replays that round's inputs
// through the layers' public functions. Each replay is timed and recorded
// as a child span of core.decide; core's self time is the real Decide span
// minus those children. The shadow instances see exactly the inputs the
// gate's own instances see, so they stay in the same state, which is what
// makes the checked-run invariants possible: the shadow tracker prices the
// real selection (Σ cost ≤ B), and the shadow ranked knapsack must
// reproduce the real selection id for id.

var spanNames = [...]string{
	"round", "core.decide", "core.feedback", "predictor.push", "bandit.read",
	"decode.cost", "predictor.forward", "knapsack.select", "decode.commit",
	"bandit.push", "decode.busy", "infer.frames",
	"cluster.round", "cluster.decide", "cluster.settle", "cluster.gap",
}

const (
	spRound = iota
	spDecide
	spFeedback
	spPush
	spBanditRead
	spCost
	spForward
	spSelect
	spCommit
	spBanditPush
	spDecodeBusy
	spInfer
	spClusterRound
	spClusterDecide
	spClusterSettle
	spClusterGap
)

// span is one timed call into a layer. Spans of one round share its round
// number; parent indexes the span that caused this one (-1 for a root).
type span struct {
	name   uint8
	round  int32
	parent int32
	start  int64 // ns since the run's epoch
	end    int64
}

type tracer struct {
	p      *probe
	budget float64
	pred   *predictor.Predictor // the gate's own predictor (read-only use)

	spans []span
	roots []int32 // root span index per block position

	// Shadow layers.
	store    *predictor.Store
	est      *bandit.TemporalEstimator
	trackers *decode.MultiTracker
	ranked   *knapsack.Ranked
	monitors *infer.Fleet

	// Scratch.
	dense   codec.Round
	costs   []float64
	temp    []float64
	conf    []float64
	mask    []bool
	feats   []predictor.Features
	out     []float64
	items   []knapsack.Item
	shadow  []int
	pushIDs []int32
	pushRew []float64

	fed          int // Feedback calls this block
	lastForwards int64
	incAtStart   core.IncrementalStats // the gate's counters before the first timed round
	incSeen      bool
	bonusSink    float64

	// Accumulators over timed rounds.
	decideMs, feedbackMs                                  []float64
	nsPush, nsRead, nsCost, nsForward, nsSelect, nsCommit int64
	nsBanditPush, nsInfer, nsDecide, nsFeedback           int64
	nsShadow                                              int64 // wrapper time beyond the real calls
	rounds, packets, rows, offers, feedbacks, frames      int64
	selected                                              int64
	spent, value, opt                                     float64
	decodeBusy                                            atomic.Int64

	failed      int64
	firstFailed string
}

func newTracer(p *probe, spec workloadSpec, pred *predictor.Predictor) (*tracer, error) {
	est, err := bandit.NewTemporalEstimator(spec.streams, 5)
	if err != nil {
		return nil, err
	}
	return &tracer{
		p: p, budget: spec.budget(), pred: pred,
		store:    predictor.NewStore(spec.streams, 5),
		est:      est,
		trackers: decode.NewMultiTracker(spec.streams, decode.DefaultCosts),
		ranked:   knapsack.NewRanked(spec.streams),
		monitors: infer.NewFleet(infer.PersonCounting{}, spec.streams),
	}, nil
}

func (t *tracer) violate(round int, format string, args ...any) {
	t.failed++
	if t.firstFailed == "" {
		t.firstFailed = fmt.Sprintf("round %d: ", round) + fmt.Sprintf(format, args...)
	}
}

func (t *tracer) add(name int, round int, parent int32, start, end int64) int32 {
	t.spans = append(t.spans, span{uint8(name), int32(round), parent, start, end})
	return int32(len(t.spans) - 1)
}

// beginBlock opens a root span slot per round of the block.
func (t *tracer) beginBlock(n int) {
	t.roots = t.roots[:0]
	for k := 0; k < n; k++ {
		t.roots = append(t.roots, -1)
	}
	t.fed = 0
}

func (t *tracer) root(k int) int32 {
	if k >= len(t.roots) {
		return -1
	}
	if t.roots[k] < 0 {
		t.roots[k] = t.add(spRound, t.p.blk.base+k, -1, t.p.t0[k], 0)
	}
	return t.roots[k]
}

// decide runs the real Decide* (call) and then the shadow layers. Exactly
// one of r and pkts is set, matching the entry point the engine used.
func (t *tracer) decide(g *probeGate, r *codec.Round, pkts []*codec.Packet, call func() ([]int, error)) ([]int, error) {
	p := t.p
	k := p.decided
	if p.isTimed(k) && !t.incSeen {
		t.incSeen = true
		t.incAtStart = g.Gate.Incremental()
	}
	t0 := p.now()
	sel, err := call()
	t1 := p.now()
	p.decidedRound(sel, err)
	if err != nil || k >= len(p.blk.rounds) {
		return sel, err
	}
	round := p.blk.base + k
	timed := p.isTimed(k)
	parent := t.add(spDecide, round, t.root(k), t0, t1)
	if r == nil {
		t.dense.FromDense(pkts)
		r = &t.dense
	}
	n := r.Len()

	// predictor: fold every packet into its feature window.
	s := p.now()
	for j, id := range r.IDs {
		t.store.Push(int(id), r.Pkts[j])
	}
	e := p.now()
	t.add(spPush, round, parent, s, e)
	dPush := e - s

	// bandit: exploitation and exploration reads.
	t.temp = t.temp[:0]
	s = p.now()
	for _, id := range r.IDs {
		t.temp = append(t.temp, t.est.Exploit(int(id)))
		t.bonusSink += t.est.Bonus(int(id))
	}
	e = p.now()
	t.add(spBanditRead, round, parent, s, e)
	dRead := e - s

	// decode trackers: dependency-inclusive cost of every packet.
	s = p.now()
	t.costs, err = t.trackers.CostsRound(t.costs[:0], r)
	e = p.now()
	t.add(spCost, round, parent, s, e)
	dCost := e - s
	if err != nil {
		t.violate(round, "shadow tracker: %v", err)
		return sel, nil
	}

	// predictor/nn: the batched forward on as many rows as the gate itself
	// forwarded this round (the rest were score-cache hits or degraded).
	var rows int
	var dForward int64
	if t.pred != nil {
		fw := g.Gate.Incremental().Forwards
		rows = int(fw - t.lastForwards)
		t.lastForwards = fw
		if rows > n {
			rows = n
		}
		if rows > 0 {
			if cap(t.out) < rows {
				t.out = make([]float64, rows)
			}
			s = p.now()
			t.feats = t.feats[:0]
			for j := 0; j < rows; j++ {
				t.feats = append(t.feats, t.store.Features(int(r.IDs[j]), t.temp[j]))
			}
			ferr := t.pred.PredictInto(t.feats, t.out[:rows])
			e = p.now()
			t.add(spForward, round, parent, s, e)
			dForward = e - s
			if ferr != nil {
				t.violate(round, "shadow forward: %v", ferr)
			}
		}
	}

	// knapsack: the ranked incremental solve over the round's (confidence,
	// cost) set. Reading the confidences back is not part of the layer.
	t.conf = t.conf[:0]
	for _, id := range r.IDs {
		t.conf = append(t.conf, g.Gate.Confidence(int(id)))
	}
	s = p.now()
	t.ranked.BeginRound()
	for j, id := range r.IDs {
		t.ranked.Offer(int(id), t.conf[j], t.costs[j], 0)
	}
	t.shadow = t.ranked.SelectAppend(t.shadow[:0], 1, t.budget)
	e = p.now()
	t.add(spSelect, round, parent, s, e)
	dSelect := e - s

	// decode trackers: commit the real selection.
	if cap(t.mask) < n {
		t.mask = make([]bool, n)
	}
	t.mask = t.mask[:n]
	for j := range t.mask {
		t.mask[j] = false
	}
	var spent, value float64
	for _, i := range sel {
		if j := findID(r.IDs, int32(i)); j >= 0 {
			t.mask[j] = true
			spent += t.costs[j]
			value += t.conf[j]
		}
	}
	s = p.now()
	cerr := t.trackers.CommitRound(r, t.mask)
	e = p.now()
	t.add(spCommit, round, parent, s, e)
	dCommit := e - s
	if cerr != nil {
		t.violate(round, "shadow commit: %v", cerr)
	}

	// Checked-run invariants.
	if spent > t.budget+1e-9 {
		t.violate(round, "selection costs %.3f, budget %.3f", spent, t.budget)
	}
	if !slices.Equal(t.shadow, sel) {
		t.violate(round, "selection differs from the shadow ranked knapsack (%d vs %d ids)", len(sel), len(t.shadow))
	}
	t.items = t.items[:0]
	offers := 0
	for j := range t.conf {
		t.items = append(t.items, knapsack.Item{Value: t.conf[j], Cost: t.costs[j]})
		if t.conf[j] > 0 {
			offers++
		}
	}
	opt := knapsack.FractionalOPT(t.items, t.budget)
	if floor := (1 - knapsack.MaxCost(t.items)/t.budget) * opt; value < floor-1e-9 {
		t.violate(round, "greedy value %.4f below the Lemma-1 floor %.4f", value, floor)
	}

	if timed {
		t.decideMs = append(t.decideMs, msOf(t1-t0))
		t.nsDecide += t1 - t0
		t.nsPush += dPush
		t.nsRead += dRead
		t.nsCost += dCost
		t.nsForward += dForward
		t.nsSelect += dSelect
		t.nsCommit += dCommit
		t.rounds++
		t.packets += int64(n)
		t.rows += int64(rows)
		t.offers += int64(offers)
		t.selected += int64(len(sel))
		t.spent += spent
		t.value += value
		t.opt += opt
		t.nsShadow += p.now() - t1
	}
	return sel, nil
}

// feedback runs the real FeedbackFull and then the shadow estimator push.
// Both engines ack rounds in decision order, so the k-th feedback of a
// block belongs to its k-th round.
func (t *tracer) feedback(g *probeGate, selected []int, necessary, failed, deferred []bool) error {
	p := t.p
	k := t.fed
	t.fed++
	t0 := p.now()
	err := g.Gate.FeedbackFull(selected, necessary, failed, deferred)
	t1 := p.now()
	if err != nil {
		p.fail(fmt.Errorf("feedback: %w", err))
		return err
	}
	round := p.blk.base + k
	parent := t.add(spFeedback, round, t.root(k), t0, t1)
	t.pushIDs, t.pushRew = t.pushIDs[:0], t.pushRew[:0]
	for j, i := range selected {
		rew := 0.0
		if necessary[j] {
			rew = 1
		}
		t.pushIDs = append(t.pushIDs, int32(i))
		t.pushRew = append(t.pushRew, rew)
	}
	s := p.now()
	perr := t.est.PushSparse(t.pushIDs, t.pushRew)
	e := p.now()
	t.add(spBanditPush, round, parent, s, e)
	if perr != nil {
		t.violate(round, "shadow estimator: %v", perr)
	}
	if p.isTimed(k) {
		t.feedbackMs = append(t.feedbackMs, msOf(t1-t0))
		t.nsFeedback += t1 - t0
		t.nsBanditPush += e - s
		t.nsShadow += p.now() - t1
		t.feedbacks++
	}
	return nil
}

// finishRound closes round k's root span and replays its decoded frames
// through the shadow inference monitors. Called outside the timed region.
func (t *tracer) finishRound(k int, gr *genRound, sel []int32, end int64) {
	p := t.p
	round := p.blk.base + k
	root := t.root(k)
	if root >= 0 {
		t.spans[root].end = end
	}
	if tdec := p.tDecide[k]; end > tdec {
		t.add(spDecodeBusy, round, root, tdec, end)
	}
	s := p.now()
	for _, i := range sel {
		if j := gr.pos(i); j >= 0 {
			t.monitors.Stream(int(i)).ObserveDecoded(gr.truth[j], gr.truth[j])
		}
	}
	e := p.now()
	t.add(spInfer, round, root, s, e)
	if p.isTimed(k) {
		t.nsInfer += e - s
		t.frames += int64(len(sel))
	}
}

// writeSpans dumps the in-memory spans as JSON lines, once, after the run.
func (t *tracer) writeSpans(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i, s := range t.spans {
		rec := struct {
			ID       int    `json:"id"`
			Name     string `json:"name"`
			Workload string `json:"workload"`
			Round    int32  `json:"round"`
			StartNs  int64  `json:"start_ns"`
			EndNs    int64  `json:"end_ns"`
			Parent   int32  `json:"parent"`
		}{i, spanNames[s.name], workload, s.round, s.start, s.end, s.parent}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
