package pipeline

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/decode"
	"packetgame/internal/metrics"
)

// The pipelined engine splits a round's lifecycle across three actors:
//
//	gate loop (caller's goroutine)
//	    pull round → Decide → publish roundWork → submit decode jobs,
//	    and apply due feedback under the lag-k schedule;
//	decode pool (Workers goroutines)
//	    decode tagged jobs, emit completions in any order;
//	collector (one goroutine)
//	    reassemble completions per round, settle rounds strictly in round
//	    order (filter/infer/accounting), and ack each settled round.
//
// Feedback ordering: every settled round produces exactly one ack, and the
// collector settles rounds in ascending round order, so acks reach the gate
// in decision order — the UCB reward windows never observe out-of-order
// rewards. In the default deterministic mode the acks travel back to the
// gate loop, which applies Feedback only when the lag schedule demands it
// (before Decide(t), rounds ≤ t−k are acked). With FreshFeedback the
// collector applies Feedback itself the moment a round settles, giving the
// estimator the freshest state at the cost of timing-dependent decisions.
//
// Liveness: acks and tokens are buffered beyond the in-flight bound, so the
// collector never blocks sending; the collector therefore always drains
// pool completions, so the pool never blocks; rounds with decode errors are
// still acked (with the error attached), so the gate loop's drain always
// terminates.

// truthVal is ground truth captured at gate time, so settling a round later
// does not race the source's per-round truth state.
type truthVal struct {
	scene codec.Scene
	ok    bool
}

// roundWork is one in-flight round: the active id list with packets and
// gate-time truth packed parallel to it, the gate's decision, and the
// settle-time frames scratch. The gate loop copies the source's Round into
// one (the source reuses its storage each round) and the collector recycles
// it through the engine's free list — ids, pkts, truth and frames all reach
// steady-state capacity — so an in-flight round costs O(active), not O(m),
// and allocates nothing of its own. cancel is non-nil only under a round
// deadline: the collector sets it when the round is abandoned, and queued
// decode jobs carrying it short-circuit with decode.ErrAborted.
type roundWork struct {
	round    int64
	m        int // fleet width the round was drawn from
	ids      []int32
	pkts     []*codec.Packet
	truth    []truthVal
	frames   []decode.Frame // settle scratch (collector-owned)
	sel      []int
	enqueued time.Time
	cancel   *atomic.Bool
}

// pktOf returns stream i's packet (nil when idle this round).
func (rw *roundWork) pktOf(i int) *codec.Packet {
	if k := findID(rw.ids, int32(i)); k >= 0 {
		return rw.pkts[k]
	}
	return nil
}

// truthOf returns stream i's captured truth.
func (rw *roundWork) truthOf(i int) truthVal {
	if k := findID(rw.ids, int32(i)); k >= 0 {
		return rw.truth[k]
	}
	return truthVal{}
}

// findID binary-searches a strictly-ascending id list.
func findID(ids []int32, id int32) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := (lo + hi) / 2
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ids) && ids[lo] == id {
		return lo
	}
	return -1
}

// getRW pulls a recycled roundWork; putRW returns one after settle. The sel
// slice is never recycled here — it travels onward in the round's ack.
func (e *Engine) getRW() *roundWork {
	e.rwMu.Lock()
	defer e.rwMu.Unlock()
	if n := len(e.rwFree); n > 0 {
		rw := e.rwFree[n-1]
		e.rwFree = e.rwFree[:n-1]
		return rw
	}
	return &roundWork{}
}

func (e *Engine) putRW(rw *roundWork) {
	rw.ids = rw.ids[:0]
	for i := range rw.pkts {
		rw.pkts[i] = nil // drop packet refs so the pool does not pin payloads
	}
	rw.pkts = rw.pkts[:0]
	rw.truth = rw.truth[:0]
	rw.frames = rw.frames[:0]
	rw.sel = nil
	rw.cancel = nil
	e.rwMu.Lock()
	e.rwFree = append(e.rwFree, rw)
	e.rwMu.Unlock()
}

// capture copies the source's round and its ground truth into a recycled
// roundWork — three O(active) appends — because the source may reuse its
// packet and truth storage as soon as it is pulled again.
func (e *Engine) capture(round int64, rnd *codec.Round) *roundWork {
	rw := e.getRW()
	rw.round = round
	rw.m = rnd.M
	rw.ids = append(rw.ids, rnd.IDs...)
	rw.pkts = append(rw.pkts, rnd.Pkts...)
	for _, id := range rnd.IDs {
		s, ok := e.src.Truth(int(id))
		rw.truth = append(rw.truth, truthVal{scene: s, ok: ok})
	}
	return rw
}

// roundAck is one settled round's redundancy feedback, traveling from the
// collector back to the gate loop. failed marks selections whose decode
// errored out (nil = clean round); such rounds still settle — partial
// failures degrade feedback, they don't abort the run. deferred marks
// selections abandoned by a deadline abort (nil = none): those slots carry
// no verdict and the gate keeps them out of its learned state.
type roundAck struct {
	sel       []int
	necessary []bool
	failed    []bool
	deferred  []bool
}

// runPipelined executes rounds through the staged engine with up to
// MaxInFlight rounds overlapping.
func (e *Engine) runPipelined(maxRounds int) (Report, error) {
	k := e.cfg.MaxInFlight
	e.raiseGatePending()
	pool := decode.NewTaggedPool(e.newDecoder(), e.cfg.Workers)
	fresh := e.cfg.FreshFeedback

	roundsCh := make(chan *roundWork, k+2)
	acks := make(chan roundAck, k+2)
	tokens := make(chan struct{}, k)
	for i := 0; i < k; i++ {
		tokens <- struct{}{}
	}
	c := &collector{
		engine: e,
		comps:  pool.Completions(),
		rounds: roundsCh,
		acks:   acks,
		tokens: tokens,
		fresh:  fresh,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.run()
	}()

	var runErr error
	var jobPkts []*codec.Packet // per-round scratch for decode-job submission
	inflight := 0
	applyDue := func(min int) {
		for inflight > min && runErr == nil {
			a := <-acks
			inflight--
			if err := feedback(e.cfg.Gate, a); err != nil {
				runErr = fmt.Errorf("pipeline: feedback: %w", err)
			}
			e.putMask(a.necessary)
		}
	}

	for next := int64(0); maxRounds == 0 || next < int64(maxRounds); next++ {
		if e.closed() {
			break
		}
		rnd, err := e.src.NextRoundSparse()
		if err == io.EOF {
			break
		}
		if err != nil {
			runErr = fmt.Errorf("pipeline: source: %w", err)
			break
		}
		// Admission control: at most k rounds in flight. Deterministic
		// mode applies the feedback of rounds ≤ next−k here, on the
		// deciding goroutine; fresh mode just takes an in-flight token
		// (the collector applied feedback already).
		if fresh {
			<-tokens
		} else {
			applyDue(k - 1)
			if runErr != nil {
				break
			}
		}

		rw := e.capture(next, rnd)
		metrics.StageEnter(e.cfg.Stages.GateStage())
		t0 := time.Now()
		sel, err := e.decide(rnd)
		metrics.StageExit(e.cfg.Stages.GateStage(), time.Since(t0).Nanoseconds())
		e.release(rnd) // rw holds its own copy
		if err != nil {
			runErr = fmt.Errorf("pipeline: gate: %w", err)
			if fresh {
				tokens <- struct{}{} // round never entered flight
			}
			break
		}
		if e.cfg.OnRound != nil {
			e.cfg.OnRound(next, append([]int(nil), sel...))
		}

		rw.sel = sel
		rw.enqueued = time.Now()
		var cancel *atomic.Bool
		if e.cfg.Deadline > 0 {
			cancel = new(atomic.Bool)
			rw.cancel = cancel
		}
		// Capture job packets before publishing rw: a deadline abort can
		// settle and recycle the roundWork while this loop is still
		// submitting, so jobs must not read rw afterwards.
		jobPkts = jobPkts[:0]
		for _, i := range sel {
			jobPkts = append(jobPkts, rw.pktOf(i))
		}
		metrics.StageEnter(e.cfg.Stages.DecodeStage())
		roundsCh <- rw
		for slot := range sel {
			pool.Submit(decode.Job{Round: next, Slot: slot, Pkt: jobPkts[slot], Cancel: cancel})
		}
		inflight++
	}

	// Shutdown: stop the stages, then drain outstanding acks in order.
	pool.Close()
	close(roundsCh)
	if !fresh {
		applyDue(0)
		for inflight > 0 { // error path: drain without applying
			a := <-acks
			e.putMask(a.necessary)
			inflight--
		}
	}
	<-done
	if runErr == nil {
		runErr = c.err
	}
	return c.rep, runErr
}

// pendingCollect accumulates one round's completions until it can settle.
type pendingCollect struct {
	work  *roundWork
	comps []decode.Completion
}

func (p *pendingCollect) ready() bool {
	return p.work != nil && len(p.comps) == len(p.work.sel)
}

// collector reassembles decode completions into rounds and settles them
// strictly in round order. It is the sole owner of the inference fleet and
// the run report while the pipeline is live.
type collector struct {
	engine *Engine
	comps  <-chan decode.Completion
	rounds <-chan *roundWork
	acks   chan<- roundAck
	tokens chan<- struct{}
	fresh  bool

	rep Report
	err error
}

func (c *collector) run() {
	pending := map[int64]*pendingCollect{}
	next := int64(0)
	roundsCh, comps := c.rounds, c.comps
	get := func(round int64) *pendingCollect {
		st := pending[round]
		if st == nil {
			st = &pendingCollect{}
			pending[round] = st
		}
		return st
	}

	// Deadline machinery: one timer tracks the head round only. Rounds
	// settle strictly in order, so the head is always the first to expire;
	// rearm repoints the timer whenever the head changes.
	deadline := c.engine.cfg.Deadline
	var timer *time.Timer
	var timerC <-chan time.Time
	rearm := func() {
		if deadline <= 0 {
			return
		}
		if timer != nil && timerC != nil && !timer.Stop() {
			<-timer.C // drain: only this goroutine receives from timer.C
		}
		timerC = nil
		st := pending[next]
		if st == nil || st.work == nil {
			return
		}
		d := time.Until(st.work.enqueued.Add(deadline))
		if timer == nil {
			timer = time.NewTimer(d)
		} else {
			timer.Reset(d)
		}
		timerC = timer.C
	}
	defer func() {
		if timer != nil && timerC != nil {
			timer.Stop()
		}
	}()

	for roundsCh != nil || comps != nil {
		select {
		case rw, ok := <-roundsCh:
			if !ok {
				roundsCh = nil
				break
			}
			get(rw.round).work = rw
		case comp, ok := <-comps:
			if !ok {
				comps = nil
				break
			}
			if comp.Round < next {
				// Straggler of a deadline-settled round: its fate was
				// already acked as deferred. Dropping it here (instead of
				// get()) keeps the pending map from resurrecting the round.
				break
			}
			st := get(comp.Round)
			st.comps = append(st.comps, comp)
		case <-timerC:
			timerC = nil
			st := pending[next]
			if st != nil && st.work != nil && !st.ready() {
				// The head round missed its deadline: cancel whatever is
				// still queued and settle now with the frames in hand.
				if st.work.cancel != nil {
					st.work.cancel.Store(true)
				}
				delete(pending, next)
				next++
				c.settle(st, true, len(pending))
			}
		}
		for {
			st := pending[next]
			if st == nil || !st.ready() {
				break
			}
			delete(pending, next)
			next++
			c.settle(st, false, len(pending))
		}
		rearm()
	}
}

// settle runs filter/infer/accounting for one collected round and acks it.
// Slots whose decode errored settle with conservative feedback and a
// failure flag — partial-failure rounds complete normally, so the gate
// loop's drain always terminates and poison pills never wedge the pipeline.
//
// aborted marks a deadline-settled round: completions the round never
// received, plus jobs the pool short-circuited with decode.ErrAborted,
// settle as deferred — no feedback verdict, the stream just observes a
// skip. depth is the number of rounds still pending behind this one, fed
// to the overload governor as its queue-pressure signal.
func (c *collector) settle(st *pendingCollect, aborted bool, depth int) {
	e := c.engine
	rw := st.work
	metrics.StageExit(e.cfg.Stages.DecodeStage(), time.Since(rw.enqueued).Nanoseconds())
	if e.fleet == nil {
		e.fleet = e.newFleet(rw.m)
	}
	if cap(rw.frames) < len(rw.sel) {
		rw.frames = make([]decode.Frame, len(rw.sel))
	}
	frames := rw.frames[:len(rw.sel)]
	for i := range frames {
		frames[i] = decode.Frame{}
	}
	var failed, deferred []bool
	if aborted {
		// Every slot starts deferred; slots with a real completion below
		// flip back to their actual outcome.
		deferred = make([]bool, len(rw.sel))
		for k := range deferred {
			deferred[k] = true
		}
	}
	for _, comp := range st.comps {
		if errors.Is(comp.Err, decode.ErrAborted) {
			if deferred == nil {
				deferred = make([]bool, len(rw.sel))
			}
			deferred[comp.Slot] = true
			continue
		}
		if aborted {
			deferred[comp.Slot] = false
		}
		if comp.Err != nil {
			if failed == nil {
				failed = make([]bool, len(rw.sel))
			}
			failed[comp.Slot] = true
			continue
		}
		frames[comp.Slot] = comp.Frame
	}
	metrics.StageEnter(e.cfg.Stages.InferStage())
	t0 := time.Now()
	truth := func(i int) (codec.Scene, bool) {
		tv := rw.truthOf(i)
		return tv.scene, tv.ok
	}
	necessary := e.settle(&c.rep, rw.m, rw.ids, rw.pkts, rw.truth, rw.sel, frames, failed, deferred, truth)
	metrics.StageExit(e.cfg.Stages.InferStage(), time.Since(t0).Nanoseconds())
	if e.cfg.Governor != nil {
		e.cfg.Governor.Observe(time.Since(rw.enqueued), depth)
	}
	a := roundAck{sel: rw.sel, necessary: necessary, failed: failed, deferred: deferred}
	e.putRW(rw) // sel travels on in the ack; buffers recycle now
	if c.fresh {
		if err := feedback(e.cfg.Gate, a); err != nil && c.err == nil {
			c.err = fmt.Errorf("pipeline: feedback: %w", err)
		}
		e.putMask(a.necessary)
		c.tokens <- struct{}{}
	} else {
		c.acks <- a
	}
}
