// Package pipeline assembles the end-to-end concurrent video inference
// pipeline of Fig 1 with PacketGame plugged between parser and decoder:
// a round source (local fleet, PGSP network client, or a PGC capture replayed
// by internal/capture) feeds the gate; selected packets are decoded on a
// worker pool; decoded frames pass an optional frame filter and the
// inference task; redundancy feedback closes the loop.
//
// The engine is one round loop (stages.go): gate → decode pool → collector →
// redundancy feedback, with up to Config.MaxInFlight = k rounds between
// decision and feedback. The decision for round t observes feedback through
// round t−k; at k = 1 that is the strict Decide/Feedback alternation of the
// paper. Config.Pipelined only says whether those rounds may overlap in time
// — round t+1 gated and queued while round t is still decoding — or each is
// settled before the next is pulled; the decisions are the same either way.
package pipeline

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/decode"
	"packetgame/internal/filter"
	"packetgame/internal/infer"
	"packetgame/internal/metrics"
	"packetgame/internal/overload"
)

// RoundSource yields one round of packets per call: a slice indexed by
// stream ID (nil entries = idle). It returns io.EOF when exhausted.
type RoundSource interface {
	NextRound() ([]*codec.Packet, error)
	// Truth returns the ground-truth scene for stream i's current-round
	// packet and whether ground truth is available (network sources
	// cannot know the content of packets that were never decoded).
	Truth(i int) (codec.Scene, bool)
}

// SparseRoundSource is implemented by sources that hand the round over in
// sparse form — active ids plus packets, no nil padding — which makes the
// whole producer side O(active) per round: a source that knows its activity
// never materializes the idle streams at all. The returned Round is valid
// until the next NextRoundSparse call; Truth is still indexed by stream id.
type SparseRoundSource interface {
	RoundSource
	NextRoundSparse() (*codec.Round, error)
}

// Sparse is the one place a dense round becomes a codec.Round: it returns
// src itself when src already hands rounds over sparse, and otherwise wraps
// it so each NextRound slice is gathered into an adapter-owned Round (nil
// entries are idle streams; the slice length is the round's fleet width M,
// which the gate checks against its own). Everything downstream of a source
// — both engines, the cluster coordinator and its workers — pulls rounds
// through the result and never sees the dense form.
func Sparse(src RoundSource) SparseRoundSource {
	if ss, ok := src.(SparseRoundSource); ok {
		return ss
	}
	return &denseAdapter{RoundSource: src}
}

// denseAdapter is a dense-only RoundSource whose rounds it gathers into its
// own Round, O(m) per round.
type denseAdapter struct {
	RoundSource
	round codec.Round
}

func (a *denseAdapter) NextRoundSparse() (*codec.Round, error) {
	pkts, err := a.NextRound()
	if err != nil {
		return nil, err
	}
	a.round.FromDense(pkts)
	return &a.round, nil
}

// release drops a consumed round's packet references when the round is the
// adapter's own storage, so a dense source's last round is not kept alive by
// the engine while it waits — on a blocking source, or between Run calls. A
// round handed over by a sparse source is the source's to manage.
func (e *Engine) release(rnd *codec.Round) {
	if _, own := e.src.(*denseAdapter); own {
		rnd.Reset(rnd.M)
	}
}

// feedback acks a settled round to the gate, with the decode-failure and
// deadline-deferral masks nil when no slot failed or was deferred.
func feedback(g core.Decider, rw *roundWork) error {
	failed, deferred := rw.failed, rw.deferred
	if rw.nFailed == 0 {
		failed = nil
	}
	if rw.open == 0 {
		deferred = nil
	}
	return g.FeedbackFull(rw.sel, rw.necessary, failed, deferred)
}

// Config parameterizes an Engine.
type Config struct {
	// Source supplies rounds.
	Source RoundSource
	// Gate is the gating policy (a *core.Gate, a baseline, or a wrapper
	// around either). The engine calls nothing on it but the two Decider
	// methods and, when present, SetMaxPending.
	Gate core.Decider
	// Task is the inference workload.
	Task infer.Task
	// Tasks, when non-empty, assigns per-stream workloads instead: stream i
	// runs Tasks[i mod len(Tasks)] (the mixed-priority deployment that
	// pairs with core.Config.Priorities). Task remains required as the
	// reporting default.
	Tasks []infer.Task
	// Costs is the decode cost model (default decode.DefaultCosts).
	Costs decode.CostModel
	// Workers is the decode worker count (default 4).
	Workers int
	// BurnNanosPerUnit makes decoding burn CPU per cost unit (wall-clock
	// realism for concurrency benchmarks on multi-core hosts; 0 disables).
	BurnNanosPerUnit int64
	// LatencyNanosPerUnit makes decoding hold a decode session for
	// cost-proportional wall-clock time without burning CPU, modelling
	// offloaded hardware decoders (0 disables; exclusive with
	// BurnNanosPerUnit).
	LatencyNanosPerUnit int64
	// Filter optionally drops decoded frames before inference (the
	// on-server frame filter stage; nil disables).
	Filter filter.FrameFilter
	// Retry bounds decode retries: each selected packet is attempted up to
	// 1+MaxRetries times with exponential backoff and an optional
	// per-attempt deadline. A packet that exhausts its attempts is a poison
	// pill: the round still settles (the failed slot reports conservative
	// redundancy feedback and counts in Report.DecodeFailed) instead of
	// aborting the run. The zero value keeps single-attempt decoding —
	// failures are still tolerated, just never retried.
	Retry decode.RetryPolicy
	// WrapDecoder, when non-nil, wraps the engine's decoder before the
	// retry layer (fault injection hooks in here, so every retry re-draws
	// its injected faults).
	WrapDecoder func(decode.PacketDecoder) decode.PacketDecoder
	// MaxInFlight is the feedback lag k: the number of rounds that may be
	// decided but not yet fed back, and with Pipelined the in-flight round
	// bound. Decide(t) observes feedback through round t−k whether or not
	// rounds overlap, so runs of the same k make identical decisions.
	// 0 defaults to 1 (strict alternation).
	MaxInFlight int
	// Pipelined lets rounds overlap: round t+1 is pulled, gated and queued
	// while round t is still decoding, up to MaxInFlight rounds deep. Unset,
	// each round is settled before the next is pulled.
	Pipelined bool
	// OnRound, when non-nil, is invoked synchronously after every gating
	// decision with the round number and the selected stream indices.
	// It is called from Run's goroutine in round order.
	OnRound func(round int64, selected []int)
	// Stages, when non-nil, receives per-stage queue-depth and latency
	// counters for the gate, decode, and infer stages.
	Stages *metrics.StageSet
	// Deadline, when positive (pipelined only), bounds each round's
	// decode-to-settle time: a round still incomplete when its deadline
	// expires is settled immediately — slots whose decode never finished
	// are fed back as Deferred (outcome unknown, no learned state touched),
	// their queued decode jobs are cancelled, and late completions are
	// discarded — instead of dragging the collector and every round behind
	// it past the SLO.
	Deadline time.Duration
	// Governor, when non-nil, receives each settled round's observed
	// latency (decode enqueue → settle) and the in-flight round depth, and
	// supplies the gate's effective budget and degradation mode (wire the
	// same governor into core.Config.Governor). This closes the overload
	// control loop through the pipeline.
	Governor *overload.Governor
	// Overload, when non-nil, receives deadline-abort counters (share it
	// with core.Config.Overload and the governor's Stats for one unified
	// snapshot).
	Overload *metrics.OverloadStats
}

// Report summarizes an Engine run.
type Report struct {
	Rounds   int64
	Packets  int64
	Decoded  int64
	Filtered int64 // decoded frames dropped by the frame filter
	Inferred int64
	// DecodeFailed counts selected packets whose decode failed even after
	// the retry policy was exhausted (poison pills, injected faults).
	DecodeFailed int64
	// DeadlineAborted counts selected packets abandoned by a round
	// deadline (settled as Deferred; excluded from Decoded).
	DeadlineAborted int64
	// Overload is the shared overload snapshot at run end (zero when
	// Config.Overload is unwired): shed/deferred/abort counters, governor
	// AIMD and ladder transitions, and the B_eff gauge.
	Overload metrics.OverloadSnapshot
	// NecessaryDecoded counts decoded frames whose inference was necessary.
	NecessaryDecoded int64
	// Accuracy is the mean emitted-result accuracy over rounds with ground
	// truth (−1 when the source provides no truth).
	Accuracy float64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// DecodedFPS is Decoded/Elapsed.
	DecodedFPS float64
	// GateFilterRate is 1 − Decoded/Packets.
	GateFilterRate float64
}

// Engine runs the pipeline.
type Engine struct {
	cfg      Config
	src      SparseRoundSource // cfg.Source through the Sparse adapter
	fleet    *infer.Fleet
	sawTruth bool

	stop      chan struct{}
	closeOnce sync.Once

	// selMask is settle scratch (the collector settles serially), one entry
	// per stream of the fleet. It is all-false between rounds — set and
	// cleared per selection — so settling never pays an O(m) wipe.
	selMask []bool
	// rwFree is the gate loop's roundWork free list: every round's buffers
	// recycle through it, so a steady-state round allocates nothing of its
	// own.
	rwFree []*roundWork
}

// New creates an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Source == nil || cfg.Gate == nil || cfg.Task == nil {
		return nil, errors.New("pipeline: Source, Gate, and Task are required")
	}
	if cfg.Costs == (decode.CostModel{}) {
		cfg.Costs = decode.DefaultCosts
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.BurnNanosPerUnit > 0 && cfg.LatencyNanosPerUnit > 0 {
		return nil, errors.New("pipeline: BurnNanosPerUnit and LatencyNanosPerUnit are exclusive decode models")
	}
	if cfg.MaxInFlight < 0 {
		return nil, fmt.Errorf("pipeline: MaxInFlight must be non-negative, got %d", cfg.MaxInFlight)
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 1
	}
	if cfg.Deadline < 0 {
		return nil, fmt.Errorf("pipeline: Deadline must be non-negative, got %v", cfg.Deadline)
	}
	if cfg.Deadline > 0 && !cfg.Pipelined {
		return nil, errors.New("pipeline: Deadline requires Pipelined (without overlap a round has no queue to shed)")
	}
	return &Engine{cfg: cfg, src: Sparse(cfg.Source), stop: make(chan struct{})}, nil
}

// Close asks a running engine to stop at the next round boundary. Run then
// drains its in-flight rounds — outstanding decodes complete, the collector
// settles and acks them, and the decode pool joins — before returning its
// partial report. Close is idempotent, safe from any goroutine, and a no-op
// after Run has returned.
func (e *Engine) Close() {
	e.closeOnce.Do(func() { close(e.stop) })
}

// closed reports whether Close has been called.
func (e *Engine) closed() bool {
	select {
	case <-e.stop:
		return true
	default:
		return false
	}
}

// Fleet exposes the per-stream inference monitors (nil before the first
// round). Read it only after Run returns.
func (e *Engine) Fleet() *infer.Fleet { return e.fleet }

// EnsureFleet builds the per-stream inference monitors for m streams before
// the first round, and returns them. Run normally builds the fleet lazily
// from the first round's width; a cluster worker that must import
// migrated monitor state before its engine sees a round calls this first.
// Idempotent once built (m is then ignored).
func (e *Engine) EnsureFleet(m int) *infer.Fleet {
	if e.fleet == nil {
		e.fleet = e.newFleet(m)
	}
	return e.fleet
}

// newDecoder builds the configured decode model, wrapped by the fault hook
// and the retry layer (innermost to outermost: model → WrapDecoder → retry).
func (e *Engine) newDecoder() decode.PacketDecoder {
	var d decode.PacketDecoder
	switch {
	case e.cfg.BurnNanosPerUnit > 0:
		d = decode.NewBurnDecoder(e.cfg.Costs, e.cfg.BurnNanosPerUnit)
	case e.cfg.LatencyNanosPerUnit > 0:
		d = decode.NewLatencyDecoder(e.cfg.Costs, e.cfg.LatencyNanosPerUnit)
	default:
		d = decode.NewDecoder(e.cfg.Costs)
	}
	if e.cfg.WrapDecoder != nil {
		d = e.cfg.WrapDecoder(d)
	}
	if !e.cfg.Retry.Zero() {
		d = decode.NewRetrier(d, e.cfg.Retry)
	}
	return d
}

// newFleet builds the per-stream inference monitors for m streams.
func (e *Engine) newFleet(m int) *infer.Fleet {
	if len(e.cfg.Tasks) > 0 {
		return infer.NewFleetOf(e.cfg.Tasks, m)
	}
	return infer.NewFleet(e.cfg.Task, m)
}

// raiseGatePending lifts the gate's pending-round bound to the engine's
// feedback lag, when the gate supports multi-pending operation.
func (e *Engine) raiseGatePending() {
	if g, ok := e.cfg.Gate.(interface{ SetMaxPending(int) }); ok && e.cfg.MaxInFlight > 1 {
		g.SetMaxPending(e.cfg.MaxInFlight)
	}
}

// Run processes up to maxRounds rounds (0 = until the source ends).
func (e *Engine) Run(maxRounds int) (Report, error) {
	start := time.Now()
	rep, err := e.runRounds(maxRounds)
	rep.Elapsed = time.Since(start)
	if rep.Elapsed > 0 {
		rep.DecodedFPS = float64(rep.Decoded) / rep.Elapsed.Seconds()
	}
	if rep.Packets > 0 {
		rep.GateFilterRate = 1 - float64(rep.Decoded)/float64(rep.Packets)
	}
	rep.Accuracy = -1
	if e.fleet != nil && e.sawTruth {
		if r, _, _, _ := e.fleet.Totals(); r > 0 {
			rep.Accuracy = e.fleet.Accuracy()
		}
	}
	rep.Overload = e.cfg.Overload.Snapshot()
	return rep, err
}

// settle applies the frame filter, inference, and report accounting for one
// round whose outcome slots are final, and fills rw.necessary, the
// per-selection redundancy feedback.
//
// Failed selections settle conservatively: the budget was spent but no
// content was seen, so the slot reports necessary feedback (the gate must
// not learn "redundant" from a packet nobody decoded) and the stream's
// monitor observes a skip, exactly as if the gate had not selected it.
// Deferred selections also observe a skip but settle with no feedback
// verdict at all — the gate keeps them out of its learned state — and are
// excluded from the Decoded count (nothing was decoded).
//
// The skipped-stream walk visits only the round's active ids and the
// selection mask is set and cleared per selection, so settling costs
// O(active), not O(m). Truth is the captured one, read positionally:
// truth[k] for the k-th active stream, truth[pos[k]] for the k-th selection.
func (e *Engine) settle(rep *Report, rw *roundWork) {
	if len(e.selMask) < rw.m {
		e.selMask = make([]bool, rw.m)
	}
	isSel := e.selMask
	for _, i := range rw.sel {
		isSel[i] = true
	}
	aborted := e.settleSelected(rep, rw)
	for k, id := range rw.ids {
		if rw.pkts[k] == nil || isSel[id] {
			continue
		}
		if tv := rw.truth[k]; tv.ok {
			e.sawTruth = true
			e.fleet.Stream(int(id)).ObserveSkipped(tv.scene)
		}
		rep.Packets++
	}
	for _, i := range rw.sel {
		isSel[i] = false
	}
	rep.Packets += int64(len(rw.sel))
	rep.Decoded += int64(len(rw.sel)) - aborted
	rep.DeadlineAborted += aborted
	e.cfg.Overload.AddAborted(aborted)
	rep.Rounds++
}

// settleSelected settles the selected slots of one round — deferred, failed,
// filtered, or inferred — filling the per-selection feedback mask.
func (e *Engine) settleSelected(rep *Report, rw *roundWork) int64 {
	var aborted int64
	for k, i := range rw.sel {
		tv := rw.truth[rw.pos[k]]
		if tv.ok {
			e.sawTruth = true
		}
		mon := e.fleet.Stream(i)
		switch {
		case rw.deferred[k]:
			aborted++
		case rw.failed[k]:
			rw.necessary[k] = true
			rep.DecodeFailed++
		default:
			scene := rw.frames[k].Scene
			if !tv.ok {
				tv = truthVal{scene: scene, ok: true} // the decoded content is the best truth we have
			}
			if e.cfg.Filter == nil || e.cfg.Filter.Pass(scene) {
				rw.necessary[k] = mon.ObserveDecoded(tv.scene, scene)
				rep.Inferred++
				if rw.necessary[k] {
					rep.NecessaryDecoded++
				}
				continue
			}
			// A filtered frame is treated as redundant feedback: the
			// filter judged its content unchanged.
			rep.Filtered++
		}
		if tv.ok {
			mon.ObserveSkipped(tv.scene)
		}
	}
	return aborted
}
