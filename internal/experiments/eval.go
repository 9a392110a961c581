package experiments

import (
	"slices"

	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/decode"
	"packetgame/internal/infer"
	"packetgame/internal/pipeline"
)

// localEngine builds the engine every policy experiment runs on, gating a
// local fleet with d. Its defaults (MaxInFlight 1, overlap off) are
// Algorithm 1: round t is settled and fed back before t+1 is pulled.
func localEngine(streams []*codec.Stream, task infer.Task, d core.Decider) (*pipeline.Engine, error) {
	return pipeline.New(pipeline.Config{Source: pipeline.NewLocalSource(streams, 0), Gate: d, Task: task})
}

// balancedAccuracy runs d over streams for the given rounds and returns the
// fleet's balanced accuracy.
func balancedAccuracy(streams []*codec.Stream, task infer.Task, d core.Decider, rounds int) (float64, error) {
	eng, err := localEngine(streams, task, d)
	if err != nil {
		return 0, err
	}
	if _, err := eng.Run(rounds); err != nil {
		return 0, err
	}
	return eng.Fleet().BalancedAccuracy(), nil
}

// SegmentAccuracy runs eng for the given rounds in blocks of
// ⌊rounds/segments⌋ (at least one round) and returns each whole block's
// balanced accuracy, from the difference of the fleet's class totals across
// it. A block in which no class occurred has no entry; rounds left over
// after the last whole block still run.
func SegmentAccuracy(eng *pipeline.Engine, rounds, segments int) ([]float64, error) {
	every := max(rounds/segments, 1)
	var accs []float64
	var nr0, nc0, pr0, pc0 int64
	for done := 0; done < rounds; done += every {
		if _, err := eng.Run(min(every, rounds-done)); err != nil {
			return nil, err
		}
		nr, nc, pr, pc := eng.Fleet().ClassTotals()
		if v, ok := infer.BalancedAccuracy(nr-nr0, nc-nc0, pr-pr0, pc-pc0); ok && done+every <= rounds {
			accs = append(accs, v)
		}
		nr0, nc0, pr0, pc0 = nr, nc, pr, pc
	}
	return accs, nil
}

// Eval is the evaluation-only Decider a policy runs behind. At decide time
// it reads the source's ground truth and the engine's fleet — quiescent
// then, the previous round settled — for oracle values, the fast-slow
// recall probe (§4.1) and the true dependency-inclusive cost of every
// selection, whatever the policy believed it would cost. Feedback goes
// straight to the policy.
type Eval struct {
	// Decider is the policy under test; set it before running the engine.
	core.Decider
	// ProbeEvery probes every n-th round from round 0 (0 = never).
	ProbeEvery int
	// TrueCost is the decode cost of every selection so far, reference
	// chains of skipped dependencies included.
	TrueCost float64
	// ProbeRounds counts the probed rounds; Needed counts the necessary
	// packets they held and Caught those the policy selected.
	ProbeRounds, Needed, Caught int64

	src    pipeline.RoundSource
	task   infer.Task
	fleet  *infer.Fleet
	costs  *decode.MultiTracker
	rounds int64
	vals   []float64 // OracleValues' result, parallel to the round's ids
	cost   []float64 // true costs, parallel to the round's ids
	picked []bool    // the policy's selection, parallel to the round's ids
}

// NewEval builds a default engine over a local fleet with an Eval in its
// gate slot, and returns both; set the Eval's Decider before running.
func NewEval(streams []*codec.Stream, task infer.Task) (*Eval, *pipeline.Engine, error) {
	m := len(streams)
	ev := &Eval{src: pipeline.NewLocalSource(streams, 0), task: task,
		costs: decode.NewMultiTracker(m, decode.DefaultCosts)}
	eng, err := pipeline.New(pipeline.Config{Source: ev.src, Gate: ev, Task: task})
	if err != nil {
		return nil, nil, err
	}
	ev.fleet = eng.EnsureFleet(m)
	return ev, eng, nil
}

// need reports whether decoding stream i's packet now would be necessary.
func (ev *Eval) need(i int) bool {
	truth, _ := ev.src.Truth(i)
	prev, started := ev.fleet.Stream(i).Emitted()
	return !started || ev.task.Necessary(prev, ev.task.ResultOf(truth))
}

// OracleValues is a core.ValueFunc scoring each packet of the round 1 if
// decoding it now would be necessary and 1e-6 otherwise. Behind a
// BaselineGate with the greedy selector it is the "Optimal" policy of
// Figs 4/9.
func (ev *Eval) OracleValues(r *codec.Round) []float64 {
	ev.vals = ev.vals[:0]
	for _, id := range r.IDs {
		v := 1e-6
		if ev.need(int(id)) {
			v = 1
		}
		ev.vals = append(ev.vals, v)
	}
	return ev.vals
}

// DecideSparseAppend implements core.Decider: the policy decides, and its
// selection is charged its true cost and, on a probed round, held against
// ground truth. The policy validates the round before anything is charged.
func (ev *Eval) DecideSparseAppend(r *codec.Round, dst []int) ([]int, error) {
	n := len(dst)
	dst, err := ev.Decider.DecideSparseAppend(r, dst)
	if err != nil {
		return nil, err
	}
	if ev.cost, err = ev.costs.CostsRound(ev.cost[:0], r); err != nil {
		return nil, err
	}
	ev.picked = slices.Grow(ev.picked[:0], r.Len())[:r.Len()]
	clear(ev.picked)
	for _, i := range dst[n:] {
		k := r.Find(int32(i))
		ev.picked[k] = true
		ev.TrueCost += ev.cost[k]
	}
	if err := ev.costs.CommitRound(r, ev.picked); err != nil {
		return nil, err
	}
	if ev.ProbeEvery > 0 && ev.rounds%int64(ev.ProbeEvery) == 0 {
		ev.ProbeRounds++
		for k, id := range r.IDs {
			if ev.need(int(id)) {
				ev.Needed++
				if ev.picked[k] {
					ev.Caught++
				}
			}
		}
	}
	ev.rounds++
	return dst, nil
}

// Recall is the probe's estimate of the fraction of necessary packets the
// policy selected (-1 when no probed round held a necessary packet).
func (ev *Eval) Recall() float64 {
	if ev.Needed == 0 {
		return -1
	}
	return float64(ev.Caught) / float64(ev.Needed)
}
