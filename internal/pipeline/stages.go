package pipeline

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/decode"
	"packetgame/internal/metrics"
)

// The engine is one round loop whose work is split across three actors:
//
//	gate loop (Run's goroutine)
//	    apply the feedback due under the lag-k schedule → pull the source →
//	    Decide → capture the round into a recycled roundWork → publish the
//	    roundWork → submit its decode jobs;
//	decode pool (Workers goroutines)
//	    decode tagged jobs, emit completions in any order;
//	collector (one goroutine)
//	    write each completion into its round's roundWork, settle rounds
//	    strictly in round order (filter/infer/accounting), and hand every
//	    settled roundWork back to the gate loop as its round's ack.
//
// Config.Pipelined decides only whether rounds may overlap. When set, round
// t+1 is pulled and gated while round t is still decoding, up to MaxInFlight
// rounds deep. When not, the gate loop waits for the ack of the round it just
// submitted and parks it in the lag FIFO before going on — a single wait on
// the same path, so the source is never pulled while a round is in the pool
// or the collector.
//
// Feedback ordering: every settled round produces exactly one ack, and the
// collector settles rounds in ascending round order, so acks reach the gate
// in decision order — the UCB reward windows never observe out-of-order
// rewards. The gate loop applies Feedback only when the lag schedule demands
// it: before round t's source pull, rounds ≤ t−k are fed back, so Decide(t)
// observes exactly rounds 0..t−k whether or not rounds overlap, and a source
// that blocks (a cluster worker awaiting its round frame) blocks with no
// feedback due. The gate loop is the gate's only caller: the collector
// settles rounds but never feeds one back, so when a round's feedback lands
// is a matter of the schedule alone, never of decode timing.
//
// The fleet: the gate loop builds the inference monitors before it publishes
// the first round (or EnsureFleet did, before Run). From a round's publish to
// its ack the collector alone touches them. The gate loop — and through it a
// source's NextRoundSparse — may read or migrate monitor state only while no
// round is between publish and ack, which with Pipelined unset is every
// source pull.
//
// Liveness: at most MaxInFlight rounds sit between publish and feedback, and
// both the round and the ack channel buffer that many, so neither the gate
// loop's publish nor the collector's ack ever blocks; the collector therefore
// always drains pool completions, so the pool never blocks; rounds with
// decode errors are still acked (with the failure flagged), so the gate
// loop's drain always terminates.

// truthVal is ground truth captured at gate time, so settling a round later
// does not race the source's per-round truth state.
type truthVal struct {
	scene codec.Scene
	ok    bool
}

// roundWork is the one record of a round, from source pull to feedback: the
// active id list with packets and gate-time truth packed parallel to it, the
// gate's decision, and one outcome slot per selection. The gate loop copies
// the source's Round into it (the source reuses its storage each round),
// publishes it to the collector, gets it back as the round's ack, and
// recycles it once the gate has consumed the feedback — every slice reaches
// steady-state capacity, so a round costs O(active), not O(m), and allocates
// nothing of its own.
//
// Ownership: the gate loop writes it until publish and again after the ack;
// in between only the collector writes (the outcome slots and open), and the
// gate loop, still submitting the round's jobs, only reads pos, pkts and
// cancel.
type roundWork struct {
	m     int // fleet width the round was drawn from
	ids   []int32
	pkts  []*codec.Packet
	truth []truthVal

	sel []int
	pos []int32 // pos[k] is stream sel[k]'s position in ids
	// Outcome slots, parallel to sel. A slot starts deferred — no outcome
	// yet — and its completion clears that, leaving a frame or a failed
	// mark; whatever is still deferred when a deadline settles the round
	// early is fed back as such.
	frames    []decode.Frame
	failed    []bool
	deferred  []bool
	necessary []bool // the redundancy feedback, filled by settle
	open      int    // slots still without an outcome
	nFailed   int

	enqueued time.Time
	// cancel is non-nil only under a round deadline: the collector sets it
	// when the round is abandoned, and queued decode jobs carrying it
	// short-circuit with decode.ErrAborted.
	cancel *atomic.Bool
}

// resize returns s with length n and every element zero, reusing its storage
// when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// getRW pulls a recycled roundWork; putRW returns one after feedback. Both
// run on the gate loop only.
func (e *Engine) getRW() *roundWork {
	if n := len(e.rwFree); n > 0 {
		rw := e.rwFree[n-1]
		e.rwFree = e.rwFree[:n-1]
		return rw
	}
	return &roundWork{}
}

func (e *Engine) putRW(rw *roundWork) {
	rw.ids = rw.ids[:0]
	clear(rw.pkts) // drop packet refs so the free list does not pin payloads
	rw.pkts = rw.pkts[:0]
	rw.truth = rw.truth[:0]
	rw.cancel = nil
	e.rwFree = append(e.rwFree, rw)
}

// capture copies the source's round and its ground truth into rw — three
// O(active) appends — because the source may reuse its packet and truth
// storage as soon as it is pulled again. It runs after the decision, which
// reads the source's own round, so the copy is not on the way to the
// selection.
func (e *Engine) capture(rw *roundWork, rnd *codec.Round) {
	rw.m = rnd.M
	rw.ids = append(rw.ids, rnd.IDs...)
	rw.pkts = append(rw.pkts, rnd.Pkts...)
	for _, id := range rnd.IDs {
		s, ok := e.src.Truth(int(id))
		rw.truth = append(rw.truth, truthVal{scene: s, ok: ok})
	}
}

// arm readies the outcome slots for the round's decision: each selection's
// position in the id list, and a zeroed slot per selection, all deferred.
func (rw *roundWork) arm(rnd *codec.Round) {
	n := len(rw.sel)
	rw.pos = rw.pos[:0]
	for _, i := range rw.sel {
		rw.pos = append(rw.pos, int32(rnd.Find(int32(i))))
	}
	rw.frames = resize(rw.frames, n)
	rw.failed = resize(rw.failed, n)
	rw.necessary = resize(rw.necessary, n)
	rw.deferred = resize(rw.deferred, n)
	for k := range rw.deferred {
		rw.deferred[k] = true
	}
	rw.open, rw.nFailed = n, 0
}

// complete records one decode outcome in its slot. A failed decode still
// closes the slot: partial failures degrade feedback, they don't hold the
// round.
func (rw *roundWork) complete(c decode.Completion) {
	if c.Err != nil {
		rw.failed[c.Slot] = true
		rw.nFailed++
	} else {
		rw.frames[c.Slot] = c.Frame
	}
	rw.deferred[c.Slot] = false
	rw.open--
}

// runRounds is the gate loop. It processes up to maxRounds rounds (0 = until
// the source ends) and returns the collector's report.
func (e *Engine) runRounds(maxRounds int) (Report, error) {
	k := e.cfg.MaxInFlight
	e.raiseGatePending()
	pool := decode.NewTaggedPool(e.newDecoder(), e.cfg.Workers)
	// At most k rounds are between publish and feedback, so k slots mean
	// neither channel ever blocks its sender (see Liveness above).
	roundsCh := make(chan *roundWork, k)
	acks := make(chan *roundWork, k)
	c := &collector{engine: e, comps: pool.Completions(), rounds: roundsCh, acks: acks}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.run()
	}()

	var runErr error
	var lag []*roundWork // overlap off: acked rounds whose feedback is not yet due
	inflight := 0        // rounds published and not yet fed back
	// applyDue feeds rounds back, oldest first, until at most max remain in
	// flight. After an error it still takes the acks — the collector's
	// rounds must come home — but applies nothing more.
	applyDue := func(max int) {
		for inflight > max {
			var rw *roundWork
			if len(lag) > 0 {
				rw = lag[0]
				lag = lag[:copy(lag, lag[1:])]
			} else {
				rw = <-acks
			}
			inflight--
			if runErr == nil {
				if err := feedback(e.cfg.Gate, rw); err != nil {
					runErr = fmt.Errorf("pipeline: feedback: %w", err)
				}
			}
			e.putRW(rw)
		}
	}

	for next := int64(0); maxRounds == 0 || next < int64(maxRounds); next++ {
		if e.closed() {
			break
		}
		// The lag schedule and the admission bound in one step: rounds
		// ≤ next−k are fed back, leaving at most k−1 in flight. It runs
		// before the pull so that a blocking source blocks with the gate
		// quiescent — no feedback due — which is what lets stream state
		// migrate between rounds; the source never touches the gate, so
		// Decide(next) sees the same fed-back set either side of the pull.
		applyDue(k - 1)
		if runErr != nil {
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
		if e.fleet == nil {
			e.fleet = e.newFleet(rnd.M)
		}

		rw := e.getRW()
		metrics.StageEnter(e.cfg.Stages.GateStage())
		t0 := time.Now()
		rw.sel, err = e.decide(rnd, rw.sel[:0])
		metrics.StageExit(e.cfg.Stages.GateStage(), time.Since(t0).Nanoseconds())
		if err != nil {
			runErr = fmt.Errorf("pipeline: gate: %w", err)
			e.release(rnd)
			e.putRW(rw) // the round never entered flight
			break
		}
		e.capture(rw, rnd)
		rw.arm(rnd)
		e.release(rnd) // rw holds its own copy
		if e.cfg.OnRound != nil {
			e.cfg.OnRound(next, append([]int(nil), rw.sel...))
		}
		if e.cfg.Deadline > 0 {
			rw.cancel = new(atomic.Bool)
		}
		rw.enqueued = time.Now()
		metrics.StageEnter(e.cfg.Stages.DecodeStage())
		roundsCh <- rw // always before the round's jobs: the collector relies on it
		for slot, p := range rw.pos {
			pool.Submit(decode.Job{Round: next, Slot: slot, Pkt: rw.pkts[p], Cancel: rw.cancel})
		}
		inflight++
		if !e.cfg.Pipelined {
			lag = append(lag, <-acks)
		}
	}

	// Shutdown: stop the stages, then bring every outstanding round home in
	// order, applying its feedback unless the run failed.
	pool.Close()
	close(roundsCh)
	applyDue(0)
	<-done
	return c.rep, runErr
}

// collector writes decode completions into their rounds and settles the
// rounds strictly in round order. It is the sole owner of the inference
// fleet and the run report while a round is between publish and ack.
type collector struct {
	engine *Engine
	comps  <-chan decode.Completion
	rounds <-chan *roundWork
	acks   chan<- *roundWork

	rep Report
}

func (c *collector) run() {
	// flight holds the published, unsettled rounds in round order:
	// flight[0] is round next.
	var flight []*roundWork
	next := int64(0)
	roundsCh, comps := c.rounds, c.comps
	settleHead := func() {
		rw := flight[0]
		flight = flight[:copy(flight, flight[1:])]
		next++
		c.settle(rw, len(flight))
	}

	// Deadline machinery: one timer tracks the head round only. Rounds
	// settle strictly in order, so the head is always the first to expire;
	// rearm repoints the timer whenever the head may have changed.
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
		if len(flight) == 0 {
			return
		}
		d := time.Until(flight[0].enqueued.Add(deadline))
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
			flight = append(flight, rw)
		case comp, ok := <-comps:
			if !ok {
				comps = nil
				break
			}
			if comp.Round < next {
				// Straggler of a deadline-settled round: its slot was
				// already acked as deferred.
				break
			}
			// A completion can outrun its round through the select, never
			// through the channels: the round was published before its jobs.
			for comp.Round >= next+int64(len(flight)) {
				flight = append(flight, <-roundsCh)
			}
			flight[comp.Round-next].complete(comp)
		case <-timerC:
			// The head round missed its deadline (a ready head never waits
			// for the timer): cancel whatever is still queued and settle now
			// with the outcomes in hand.
			timerC = nil
			flight[0].cancel.Store(true)
			settleHead()
		}
		for len(flight) > 0 && flight[0].open == 0 {
			settleHead()
		}
		rearm()
	}
}

// settle runs filter/infer/accounting for one collected round and acks it.
// Slots whose decode errored settle with conservative feedback and a
// failure flag — partial-failure rounds complete normally, so the gate
// loop's drain always terminates and poison pills never wedge the pipeline.
// depth is the number of rounds still pending behind this one, fed to the
// overload governor as its queue-pressure signal.
func (c *collector) settle(rw *roundWork, depth int) {
	e := c.engine
	metrics.StageExit(e.cfg.Stages.DecodeStage(), time.Since(rw.enqueued).Nanoseconds())
	metrics.StageEnter(e.cfg.Stages.InferStage())
	t0 := time.Now()
	e.settle(&c.rep, rw)
	metrics.StageExit(e.cfg.Stages.InferStage(), time.Since(t0).Nanoseconds())
	if e.cfg.Governor != nil {
		e.cfg.Governor.Observe(time.Since(rw.enqueued), depth)
	}
	c.acks <- rw
}
