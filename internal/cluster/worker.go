package cluster

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/decode"
	"packetgame/internal/infer"
	"packetgame/internal/knapsack"
	"packetgame/internal/metrics"
	"packetgame/internal/overload"
	"packetgame/internal/pipeline"
	"packetgame/internal/predictor"
)

// OrphanOptions arms orphan mode: a worker that loses its coordinator
// degrades to local temporal-only gating instead of stalling or re-homing,
// then reconciles its observations with whichever coordinator is alive.
type OrphanOptions struct {
	// Source is an identically-seeded local instance of the cluster's
	// round source. On coordinator loss it is advanced to the worker's
	// round clock and then drives local rounds, filtered to the streams
	// this worker owns.
	Source pipeline.RoundSource
	// Rounds is how many local rounds to play before reconciling and
	// retiring (default 8).
	Rounds int64
}

// WorkerOptions tunes one data-plane worker.
type WorkerOptions struct {
	// Name is a diagnostic label sent in the join frame.
	Name string
	// WrapDecoder injects decode faults (same hook as pipeline.Config).
	WrapDecoder func(decode.PacketDecoder) decode.PacketDecoder
	// DecodeWorkers is the local decode parallelism (default 2).
	DecodeWorkers int
	// CrashAfter, when > 0, makes the worker abruptly close its connection
	// after fully settling that round (its report for the round is never
	// sent) — the chaos hook. Crashes land exactly on a round boundary, so
	// same-seed chaos runs are deterministic.
	CrashAfter int64
	// Orphan, when non-nil, selects orphan mode over re-homing when the
	// coordinator dies: gate locally under the last granted budget at the
	// overload ladder's temporal-only rung, then reconcile and retire.
	Orphan *OrphanOptions
}

const (
	// rejoinAttempts bounds re-home/reconcile dial sweeps over the standby
	// list, with deterministic jittered backoff from rejoinBase between them.
	rejoinAttempts = 8
	rejoinBase     = 50 * time.Millisecond
	// rejoinDial bounds one dial; rejoinReplyWait the wait for the verdict
	// (the standby may hold its rejoin window open for slower members).
	rejoinDial      = 5 * time.Second
	rejoinReplyWait = 30 * time.Second
)

// errCrashed marks an injected crash (distinguished from real failures in
// Wait's error).
var errCrashed = errors.New("cluster: injected worker crash")

// session is one coordinator connection. A worker may go through several —
// primary, then an elected standby — and every per-connection read state
// (delta-coding membership, queued frames) is scoped to the session.
type session struct {
	*link
	down chan struct{} // closed by the read loop on a recoverable loss
}

// Worker is one data-plane process: it runs the full gate over the
// global stream-ID space — scoring only the streams the coordinator routes
// to it — and defers the knapsack solve to the coordinator through a remote
// selector that trades candidate frames for grant frames inside Decide.
type Worker struct {
	opts WorkerOptions
	// sess is the current coordinator connection. Only the engine thread
	// swaps it, so its own reads need no lock; wmu orders the swap against
	// the heartbeat pump's sends.
	wmu  sync.Mutex
	sess *session

	id    int
	epoch uint64
	ccfg  ClusterConfig

	gate   *core.Gate
	fleet  *infer.Fleet
	eng    *pipeline.Engine
	src    *clusterSource
	over   *metrics.OverloadStats
	greedy knapsack.Greedy // local solver for orphan/disconnected rounds

	stop     chan struct{} // closed on fatal error or crash: unblocks everything
	stopOnce sync.Once
	bye      chan struct{} // closed on orderly goodbye from the coordinator
	byeOnce  sync.Once
	done     chan struct{}

	mu       sync.Mutex
	readErr  error
	standbys []string     // re-home targets, refreshed by fStandbys frames
	orphanR  OrphanReport // filled when orphan mode ran
	// accBase corrects totals() for monitor-state transfers: counters that
	// leave with a retired stream were observed here (keep them), counters
	// that arrive with an adopted stream were observed elsewhere (exclude
	// them). totals() then counts exactly the observations this worker made
	// itself, which keeps the report deltas monotonic across transfers.
	accBase AccDeltas

	grantCh chan grantMsg
	roundCh chan *roundMsg
	// recFree is the round records' way back from the engine to the reader
	// (takeRecord, release). Three slots, one per record that can exist when
	// the coordinator overlaps rounds: installed, in roundCh, being decoded.
	recFree chan *roundMsg

	// prevIDs is the delta-coding membership state of the round-frame stream
	// (readLoop-owned): the ascending stream ids of the last decoded round.
	// It resets with every new session — delta coding starts from the empty
	// set on both sides of a fresh connection.
	prevIDs []int32
	// rec is the record the round frame being read lands in, scratch the body
	// buffer every other frame type shares (both readLoop-owned, see place).
	rec     *roundMsg
	scratch []byte
	// owned tracks the streams this worker has ever been routed or adopted
	// (readLoop-owned while connected; read by the engine only after the
	// read loop has exited). Orphan mode gates exactly these streams.
	owned []bool
	// lastReported is the observation watermark: totals up to and including
	// the last successfully delivered report or re-join handoff. The
	// difference totals−lastReported is what the next report carries, so a
	// death at any moment loses at most one round of observations.
	lastReported AccDeltas
}

// OrphanReport summarizes a worker's orphan-mode episode.
type OrphanReport struct {
	Entered    bool
	Rounds     int64 // local rounds played
	Decoded    int64 // local decode grants
	Deltas     AccDeltas
	Reconciled bool // observations handed to a live coordinator
}

// Dial connects to the coordinator, performs the PGCP handshake and join,
// builds the gate from the welcomed cluster config, and starts the worker's
// engine, reader, and heartbeat goroutines. It returns once the worker is
// admitted (the coordinator may still be transferring state to it).
func Dial(addr string, opts WorkerOptions) (*Worker, error) {
	if opts.Orphan != nil && opts.Orphan.Rounds <= 0 {
		opts.Orphan.Rounds = 8
	}
	// The welcome comes at the coordinator's next consistent point, unbounded.
	var wel Welcome
	l, err := dialLink(addr, 0, fJoin, &JoinInfo{Name: opts.Name}, fWelcome, &wel, 0)
	if err != nil {
		return nil, err
	}
	w := &Worker{
		opts:    opts,
		stop:    make(chan struct{}),
		bye:     make(chan struct{}),
		done:    make(chan struct{}),
		grantCh: make(chan grantMsg, 1),
		roundCh: make(chan *roundMsg, 1),
		recFree: make(chan *roundMsg, 3),
		over:    &metrics.OverloadStats{},
	}
	if err := w.build(wel); err != nil {
		l.close()
		return nil, err
	}
	w.attach(l)
	go w.run()
	return w, nil
}

// attach makes l the worker's coordinator connection: a new session with its
// own reader and heartbeat.
func (w *Worker) attach(l *link) {
	s := &session{link: l, down: make(chan struct{})}
	w.wmu.Lock()
	w.sess = s
	w.wmu.Unlock()
	go w.readLoop(s)
	go w.heartbeat(s)
}

// build materializes the gate, fleet, and engine from the welcomed config.
// Every worker builds the predictor locally from the shared config: seeded
// init makes the weights bit-identical across workers and the single-gate
// oracle, so no weight tensors ever cross the wire.
func (w *Worker) build(wel Welcome) error {
	w.id = wel.WorkerID
	w.epoch = wel.Epoch
	w.ccfg = wel.Cfg
	w.setStandbys(wel.Standbys)
	cfg := wel.Cfg
	w.owned = make([]bool, cfg.Streams)

	task, err := infer.ByName(cfg.Task)
	if err != nil {
		return fmt.Errorf("cluster: worker task: %w", err)
	}
	var pred *predictor.Predictor
	if cfg.UsePred {
		pred, err = predictor.New(cfg.Predictor)
		if err != nil {
			return fmt.Errorf("cluster: worker predictor: %w", err)
		}
	}
	w.src = &clusterSource{w: w, m: cfg.Streams, welRound: wel.CurrentRound}
	sel := &remoteSelector{w: w, cost: make([]float64, cfg.Streams)}
	gate, err := core.NewGate(core.Config{
		Streams:     cfg.Streams,
		Window:      cfg.Window,
		Budget:      cfg.Budget,
		Costs:       cfg.Costs,
		Predictor:   pred,
		TaskIndex:   cfg.TaskIndex,
		UseTemporal: cfg.UseTemporal,
		Breaker:     cfg.Breaker,
		Selector:    sel,
		Planner:     w.src,
		Overload:    w.over,
	})
	if err != nil {
		return fmt.Errorf("cluster: worker gate: %w", err)
	}
	if wel.CurrentRound > 0 {
		if err := gate.AdvanceTo(wel.CurrentRound); err != nil {
			return fmt.Errorf("cluster: worker clock: %w", err)
		}
	}
	w.gate = gate
	workers := w.opts.DecodeWorkers
	if workers <= 0 {
		workers = 2
	}
	eng, err := pipeline.New(pipeline.Config{
		Source:      w.src,
		Gate:        gate,
		Task:        task,
		Costs:       cfg.Costs,
		Workers:     workers,
		Retry:       cfg.Retry,
		WrapDecoder: w.opts.WrapDecoder,
		MaxInFlight: 1,
		Overload:    w.over,
	})
	if err != nil {
		return fmt.Errorf("cluster: worker engine: %w", err)
	}
	w.eng = eng
	// The fleet must exist before the first round: a worker joining
	// mid-run receives state-transfer frames (which import monitor state)
	// before its first round frame.
	w.fleet = eng.EnsureFleet(cfg.Streams)
	return nil
}

// send writes one frame to the current session.
func (w *Worker) send(typ uint8, body []byte) error {
	w.wmu.Lock()
	s := w.sess
	w.wmu.Unlock()
	return s.send(typ, body)
}

// fail records the first fatal error and unblocks every waiter.
func (w *Worker) fail(err error) {
	w.mu.Lock()
	if w.readErr == nil {
		w.readErr = err
	}
	w.mu.Unlock()
	w.stopOnce.Do(func() { close(w.stop) })
}

// Wait blocks until the worker's run ends and returns its final error (nil
// on an orderly goodbye or a reconciled orphan retirement, errCrashed
// after an injected crash).
func (w *Worker) Wait() error {
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	if errors.Is(w.readErr, io.EOF) {
		return nil
	}
	return w.readErr
}

// Crashed reports whether the worker ended via the injected-crash hook.
func (w *Worker) Crashed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return errors.Is(w.readErr, errCrashed)
}

// ID returns the coordinator-assigned worker ID.
func (w *Worker) ID() int { return w.id }

// Gate exposes the worker's gate (tests inspect warming/breaker state).
func (w *Worker) Gate() *core.Gate { return w.gate }

// Orphan returns the orphan-mode episode summary (zero if never orphaned).
func (w *Worker) Orphan() OrphanReport {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.orphanR
}

func (w *Worker) setStandbys(addrs []string) {
	w.mu.Lock()
	w.standbys = append(w.standbys[:0], addrs...)
	w.mu.Unlock()
}

func (w *Worker) standbyList() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.standbys...)
}

// ended reports whether the run is over: failed, crashed, or told goodbye.
func (w *Worker) ended() bool {
	select {
	case <-w.stop:
	case <-w.bye:
	default:
		return false
	}
	return true
}

// recoverable reports whether losing the coordinator connection has a
// recovery path (re-home to a standby, or orphan mode) rather than being
// fatal.
func (w *Worker) recoverable() bool {
	return !w.ended() && (w.opts.Orphan != nil || len(w.standbyList()) > 0)
}

// totals snapshots the worker's cumulative observation counters. The live
// counters have no decode-failure tally, so DecodeFailed rides only in the
// final residual.
func (w *Worker) totals() AccDeltas {
	nr, nc, pr, pc := w.fleet.ClassTotals()
	snap := w.over.Snapshot()
	d := AccDeltas{
		NegRounds: nr, NegCorrect: nc,
		PosRounds: pr, PosCorrect: pc,
		Shed: snap.Shed, Deferred: snap.Deferred,
	}
	w.mu.Lock()
	d.add(w.accBase)
	w.mu.Unlock()
	return d
}

// monDeltas extracts one monitor's class counters as deltas.
func monDeltas(st infer.MonitorState) AccDeltas {
	return AccDeltas{
		NegRounds: st.NegRounds, NegCorrect: st.NegCorrect,
		PosRounds: st.PosRounds, PosCorrect: st.PosCorrect,
	}
}

// shiftBase folds a transfer adjustment into the totals correction.
func (w *Worker) shiftBase(d AccDeltas) {
	w.mu.Lock()
	w.accBase.add(d)
	w.mu.Unlock()
}

// run drives the engine until the source EOFs (goodbye or reconciled
// orphan retirement) or fails, then sends the final accounting frame. The
// final carries only the residual past the lastReported watermark: the
// per-round delta reports already delivered everything before it.
func (w *Worker) run() {
	defer close(w.done)
	defer func() { w.sess.close() }()
	rep, err := w.eng.Run(0)
	if err != nil {
		w.fail(err)
		return
	}
	select {
	case <-w.stop:
		// Crash or connection loss: no final frame.
		return
	case <-w.bye:
		// Orderly goodbye: report the final accounting below.
	default:
		// Reconciled orphan retirement: deltas were handed over already.
		return
	}
	d := w.totals().sub(w.lastReported)
	fin := WorkerFinal{
		Rounds:       rep.Rounds,
		Decoded:      rep.Decoded,
		DecodeFailed: rep.DecodeFailed,
		NegRounds:    d.NegRounds,
		NegCorrect:   d.NegCorrect,
		PosRounds:    d.PosRounds,
		PosCorrect:   d.PosCorrect,
		Shed:         d.Shed,
		Deferred:     d.Deferred,
	}
	body, err := gobEncode(&fin)
	if err != nil {
		w.fail(err)
		return
	}
	if err := w.send(fFinal, body); err != nil {
		w.fail(err)
		return
	}
	_ = w.send(fGoodbye, nil)
}

// crash abruptly severs the connection (the chaos hook): no goodbye, no
// final frame — the coordinator learns of the death from the broken pipe.
func (w *Worker) crash() {
	w.fail(errCrashed)
	w.sess.close()
}

// readLoop is the worker's only frame reader for one session. Control
// frames that mutate gate state (retire, import, fresh-adopt) are handled
// inline: the coordinator only sends them while this worker is blocked
// awaiting its next round frame, at which point the engine has released
// all due feedback and the gate is quiescent.
//
// A read error ends the session. When a recovery path exists (standbys or
// orphan mode) it closes the session's down channel instead of failing the
// worker — the engine thread then re-homes or goes orphan.
func (w *Worker) readLoop(s *session) {
	place := w.place
	for {
		typ, body, err := s.recv(0, place)
		if err != nil {
			// Dead before down is signalled: what the engine sends once it has
			// seen the loss fails, so its deltas ride the re-join handoff.
			s.close()
			if w.recoverable() {
				close(s.down)
			} else {
				w.fail(err)
			}
			return
		}
		switch typ {
		case fRound:
			var msg *roundMsg
			if msg, err = w.decodeRound(); err == nil {
				select {
				case w.roundCh <- msg:
				case <-w.stop:
					return
				}
			}
		case fGrant:
			var g grantMsg
			if g, err = decodeGrant(body, w.ccfg.Streams); err == nil {
				select {
				case w.grantCh <- g:
				case <-w.stop:
					return
				}
			}
		case fRetire, fState, fImportFresh:
			err = w.control(typ, body)
		case fStandbys:
			var addrs []string
			if err = gobDecode(body, &addrs); err == nil {
				w.setStandbys(addrs)
			}
		case fGoodbye:
			w.byeOnce.Do(func() { close(w.bye) })
			return
		case fHeartbeat:
			// Coordinator heartbeat (standby path); tolerate and ignore.
		default:
			err = fmt.Errorf("cluster: worker got unexpected frame type %d", typ)
		}
		if err != nil {
			w.fail(err)
			return
		}
	}
}

// place tells the link where a frame's body goes. A round frame lands in the
// record that will carry it to the engine and keep it for the round's life;
// every other body is dead once its arm of the read loop has decoded it (the
// decoders copy what they keep), so they all share one scratch.
func (w *Worker) place(typ uint8) *[]byte {
	if typ != fRound {
		return &w.scratch
	}
	w.rec = w.takeRecord()
	return &w.rec.body
}

// decodeRound decodes the round frame just read into w.rec's body, into
// w.rec, and advances the session's membership state.
func (w *Worker) decodeRound() (*roundMsg, error) {
	msg := w.rec
	if err := decodeRoundDelta(msg.body, w.ccfg.Streams, w.prevIDs, msg); err != nil {
		return nil, err
	}
	w.prevIDs = append(w.prevIDs[:0], msg.rnd.IDs...)
	for _, id := range msg.rnd.IDs {
		w.owned[id] = true
	}
	return msg, nil
}

// takeRecord returns a round record to fill: a recycled one when the engine
// has handed one back, else a new one.
func (w *Worker) takeRecord() *roundMsg {
	select {
	case msg := <-w.recFree:
		return msg
	default:
		return new(roundMsg)
	}
}

// release recycles a round record: its body, packet arena and truth columns
// become the next round's. Once it returns, nothing msg ever handed out — its
// rnd, a packet, a Payload — may be touched again. With no room the record is
// dropped.
func (w *Worker) release(msg *roundMsg) {
	select {
	case w.recFree <- msg:
	default:
	}
}

// control serves one sequenced control frame — retire, state, fresh-adopt:
// decode, update the owned set, act, reply under the same sequence number.
// Adopted streams take the state they came with, or — a fresh adoption,
// their state was lost — honest zero state: breaker clock pinned to now,
// temporal-only until windows refill.
func (w *Worker) control(typ uint8, body []byte) error {
	var ids []int
	var blobs []StreamBlob
	var seq uint64
	var err error
	if typ == fState {
		seq, err = decodeCtrl(body, &blobs)
		for _, b := range blobs {
			ids = append(ids, b.Stream)
		}
	} else {
		seq, err = decodeCtrl(body, &ids)
	}
	if err != nil {
		return err
	}
	for _, i := range ids {
		if i < 0 || i >= len(w.owned) {
			return fmt.Errorf("cluster: control frame %d names stream %d outside [0,%d)", typ, i, len(w.owned))
		}
		w.owned[i] = typ != fRetire
	}
	if typ == fRetire {
		return w.retire(seq, ids)
	}
	for _, b := range blobs {
		if err := w.gate.ImportStream(b.Stream, b.Gate); err != nil {
			return fmt.Errorf("cluster: adopt %d: %w", b.Stream, err)
		}
		// The arriving counters were observed (and already reported) by the
		// previous owner: exclude them from this worker's totals.
		w.shiftBase(AccDeltas{}.sub(monDeltas(b.Monitor)))
		w.fleet.Stream(b.Stream).Import(b.Monitor)
	}
	for _, i := range ids[len(blobs):] { // fresh adoptions: a state frame's ids are its blobs'
		if err := w.gate.ImportFreshStream(i); err != nil {
			return fmt.Errorf("cluster: fresh adopt %d: %w", i, err)
		}
		w.fleet.Stream(i).Reset()
	}
	body, _ = encodeCtrl(seq, nil) // the ack: no payload, nothing to fail
	return w.send(fStateAck, body)
}

// retire exports the named streams (gate + monitor), resets their local
// slots, and replies with the serialized state batch.
func (w *Worker) retire(seq uint64, ids []int) error {
	blobs := make([]StreamBlob, 0, len(ids))
	for _, i := range ids {
		st, err := w.gate.ExportStream(i)
		if err != nil {
			return fmt.Errorf("cluster: retire export %d: %w", i, err)
		}
		mon := w.fleet.Stream(i).Export()
		if err := w.gate.RetireStream(i); err != nil {
			return fmt.Errorf("cluster: retire %d: %w", i, err)
		}
		// The counters leave with the stream but the observations were made
		// here: keep them in this worker's totals.
		w.shiftBase(monDeltas(mon))
		w.fleet.Stream(i).Reset()
		blobs = append(blobs, StreamBlob{Stream: i, Gate: st, Monitor: mon})
	}
	body, err := encodeCtrl(seq, &blobs)
	if err != nil {
		return err
	}
	return w.send(fState, body)
}

// heartbeat sends liveness beacons for one session, until its link dies, so
// the coordinator's lease survives long decode stalls between reports. The
// period carries deterministic per-worker jitter: a fleet admitted (or
// re-homed) together must not beacon in phase.
func (w *Worker) heartbeat(s *session) {
	every := w.ccfg.HeartbeatEvery
	if every <= 0 {
		every = 500 * time.Millisecond
	}
	err := s.beat(heartbeatJitter(every, w.id), func() []byte {
		w.src.mu.Lock()
		defer w.src.mu.Unlock()
		return encodeReport(w.src.lastRound, 0, AccDeltas{})
	})
	// A beacon racing the orderly goodbye (the conn closes right after the
	// final frame) is not a failure; real connection loss also breaks the
	// read loop, which either reports it or triggers recovery.
	if err != nil && !w.ended() && !w.recoverable() {
		w.fail(err)
	}
}

// drainStale discards frames queued by a dead session so the next session
// starts from a clean slate.
func (w *Worker) drainStale() {
	for {
		select {
		case msg := <-w.roundCh:
			w.release(msg)
		case <-w.grantCh:
		default:
			return
		}
	}
}

// rehome swaps in the connection an elected coordinator accepted: discard
// the dead session's stale frames, reset the per-session read state, attach.
func (w *Worker) rehome(l *link, tk TakeoverInfo) {
	w.drainStale()
	w.prevIDs = w.prevIDs[:0]
	w.epoch = tk.Epoch
	w.setStandbys(tk.Standbys)
	w.attach(l)
}

// rejoin sweeps the standby list (jittered backoff between sweeps) until
// one accepts. reconcileOnly hands in observations and departs; otherwise
// the accepted session is installed and the engine resumes on it.
func (w *Worker) rejoin(clock int64, reconcileOnly bool) error {
	totals := w.totals()
	info := RejoinInfo{
		WorkerID:      w.id,
		Epoch:         w.epoch,
		Clock:         clock,
		Name:          w.opts.Name,
		ReconcileOnly: reconcileOnly,
		Deltas:        totals.sub(w.lastReported),
	}
	for attempt := 0; attempt < rejoinAttempts; attempt++ {
		for _, addr := range w.standbyList() {
			if w.ended() {
				return errors.New("cluster: re-join aborted")
			}
			var tk TakeoverInfo
			l, err := dialLink(addr, rejoinDial, fRejoin, &info, fTakeover, &tk, rejoinReplyWait)
			if err != nil {
				continue
			}
			if !tk.Accepted {
				l.close()
				return fmt.Errorf("cluster: re-join rejected: %s", tk.Reason)
			}
			w.lastReported = totals
			if reconcileOnly {
				l.close()
				return nil
			}
			w.rehome(l, tk)
			return nil
		}
		time.Sleep(rejoinBackoff(rejoinBase, w.id, attempt))
	}
	return fmt.Errorf("cluster: no standby accepted re-join after %d sweeps", rejoinAttempts)
}

// clusterSource adapts the round frames into the pipeline's
// SparseRoundSource and the gate's overload.Planner: each next-round call
// reports the previous round's settlement, then blocks for the next round
// frame; Plan serves the coordinator-planned effective budget and mode for
// the round in flight. On coordinator loss it re-homes to a standby or
// degrades to orphan mode, transparently to the engine.
type clusterSource struct {
	w *Worker
	m int

	mu        sync.Mutex // guards lastRound against the heartbeat goroutine
	lastRound int64

	welRound int64 // clock granted at admission (for never-started workers)
	started  bool
	t0       time.Time
	// cur is the installed round's record, nil once next has released it. The
	// scalars read between rounds — the clock, the plan, the crash and orphan
	// checks — are kept by value so nothing dereferences a released record.
	cur       *roundMsg
	round     int64
	bEff      float64
	mode      overload.Mode
	grantEWMA float64 // smoothed granted decode cost (orphan budget)
	grantSeen bool
	orphan    *orphanState
}

// orphanState drives local rounds after the coordinator is lost.
type orphanState struct {
	src     pipeline.SparseRoundSource
	left    int64
	round   int64 // next local round number
	bEff    float64
	started AccDeltas // totals watermark at orphan entry
	decoded int64
}

// clock returns the next round this worker expects.
func (s *clusterSource) clock() int64 {
	if s.started {
		return s.round + 1
	}
	return s.welRound
}

// next reports the settled round (if any) and blocks for the next frame,
// recovering through re-home or orphan mode when the session dies.
func (s *clusterSource) next() (*roundMsg, error) {
	w := s.w
	// The release site, and the one place the records' lifetime rule is
	// written. The engine is built (build) with MaxInFlight 1, overlap off and
	// no Deadline, so its gate loop pulls the source only after the previous
	// round was acked — every decode job done — fed back, and its roundWork
	// recycled with its packet pointers cleared; the gate reads a round in
	// place and keeps no packet; and decode.Frame holds values, no packet. On
	// entry here, then, no goroutine can reach a packet of the installed round.
	// The record goes back before the report is written: at MaxInFlight 1 the
	// coordinator sends the next round frame only after that report, so the
	// reader finds this same record free — one record per worker.
	if s.cur != nil {
		w.release(s.cur)
		s.cur = nil
	}
	if s.orphan != nil {
		return s.orphanNext()
	}
	if s.started {
		if w.opts.CrashAfter > 0 && s.round >= w.opts.CrashAfter {
			w.crash()
			return nil, errCrashed
		}
		totals := w.totals()
		rep := encodeReport(s.round, time.Since(s.t0), totals.sub(w.lastReported))
		if err := w.send(fReport, rep); err != nil {
			if !w.recoverable() {
				w.fail(err)
				return nil, err
			}
			// The send failed on a dying session: the read loop closes
			// down momentarily and the select below recovers. The
			// unreported deltas ride the re-join handoff instead.
		} else {
			w.lastReported = totals
		}
	}
	for {
		// Prefer a round the dead-or-alive session already delivered: its
		// decision context is valid regardless of what happened since.
		select {
		case msg := <-w.roundCh:
			s.install(msg)
			return msg, nil
		default:
		}
		sess := w.sess
		select {
		case msg := <-w.roundCh:
			s.install(msg)
			return msg, nil
		case <-w.bye:
			return nil, io.EOF
		case <-w.stop:
			w.mu.Lock()
			err := w.readErr
			w.mu.Unlock()
			if err == nil {
				err = io.EOF
			}
			return nil, err
		case <-sess.down:
			if w.opts.Orphan != nil {
				if err := s.enterOrphan(); err != nil {
					w.fail(err)
					return nil, err
				}
				return s.orphanNext()
			}
			if err := w.rejoin(s.clock(), false); err != nil {
				w.fail(err)
				return nil, err
			}
			// Re-homed: the handoff carried the pending deltas (the re-join
			// advanced the watermark), and rounds now arrive on the new
			// session. The next settled round reports only its own deltas.
			continue
		}
	}
}

func (s *clusterSource) install(msg *roundMsg) {
	s.cur = msg
	s.round, s.bEff, s.mode = msg.round, msg.bEff, msg.mode
	s.started = true
	s.t0 = time.Now()
	s.mu.Lock()
	s.lastRound = msg.round
	s.mu.Unlock()
}

// enterOrphan switches to local gating: advance the identically-seeded
// local source past the rounds already played, then serve Rounds local
// rounds filtered to the owned streams at the last granted budget.
func (s *clusterSource) enterOrphan() error {
	w := s.w
	w.drainStale()
	clock := s.clock()
	src := pipeline.Sparse(w.opts.Orphan.Source)
	for i := int64(0); i < clock; i++ {
		if _, err := src.NextRoundSparse(); err != nil {
			return fmt.Errorf("cluster: orphan source behind cluster clock %d: %w", clock, err)
		}
	}
	bEff := s.grantEWMA
	if !s.grantSeen {
		// Never granted anything: fall back to the planned share.
		if s.started {
			bEff = s.bEff
		} else {
			bEff = w.ccfg.Budget
		}
	}
	s.orphan = &orphanState{
		src:     src,
		left:    w.opts.Orphan.Rounds,
		round:   clock,
		bEff:    bEff,
		started: w.totals(),
	}
	w.mu.Lock()
	w.orphanR.Entered = true
	w.mu.Unlock()
	return nil
}

// orphanNext serves one local round, or — once the orphan budget of rounds
// is spent — reconciles the accumulated observations with a live
// coordinator and retires the worker cleanly.
func (s *clusterSource) orphanNext() (*roundMsg, error) {
	w := s.w
	o := s.orphan
	if o.left <= 0 {
		deltas := w.totals().sub(o.started)
		reconciled := w.rejoin(o.round, true) == nil
		w.mu.Lock()
		w.orphanR.Deltas = deltas
		w.orphanR.Decoded = o.decoded
		w.orphanR.Reconciled = reconciled
		w.mu.Unlock()
		return nil, io.EOF
	}
	o.left--
	msg := w.takeRecord()
	msg.round = o.round
	msg.bEff = o.bEff
	msg.mode = overload.ModeTemporalOnly
	if err := gatherOwned(o.src, w.owned, s.m, msg); err != nil {
		w.release(msg)
		// Source exhausted mid-orphan: reconcile what we have.
		o.left = 0
		return s.orphanNext()
	}
	o.round++
	w.mu.Lock()
	w.orphanR.Rounds++
	w.mu.Unlock()
	s.install(msg)
	return msg, nil
}

// gatherOwned pulls one round from the local source into msg — reset to
// width m first — keeping only the streams this worker owns (best effort:
// streams never routed here are unknown and skipped). The packets stay the
// local source's own; msg's body and arena are not used.
func gatherOwned(src pipeline.SparseRoundSource, owned []bool, m int, msg *roundMsg) error {
	rnd, err := src.NextRoundSparse()
	if err != nil {
		return err
	}
	msg.rnd.Reset(m)
	msg.truth = msg.truth[:0]
	msg.hasT = msg.hasT[:0]
	for k, id := range rnd.IDs {
		if int(id) < len(owned) && owned[id] {
			msg.rnd.Append(id, rnd.Pkts[k])
			t, ok := src.Truth(int(id))
			msg.truth = append(msg.truth, t)
			msg.hasT = append(msg.hasT, ok)
		}
	}
	return nil
}

// NextRoundSparse implements pipeline.SparseRoundSource: the frame is
// already sparse, so the engine's fast path gets it wholesale.
func (s *clusterSource) NextRoundSparse() (*codec.Round, error) {
	msg, err := s.next()
	if err != nil {
		return nil, err
	}
	return &msg.rnd, nil
}

// NextRound implements pipeline.RoundSource. Nothing pulls a cluster
// source dense: the engine takes the sparse frame as it arrived.
func (s *clusterSource) NextRound() ([]*codec.Packet, error) {
	return nil, errors.New("cluster: round frames are sparse; use NextRoundSparse")
}

// Truth implements pipeline.RoundSource: ground truth relayed with the
// round frame (accuracy accounting only — redundancy feedback never reads
// it, so decision equality does not depend on the relay).
func (s *clusterSource) Truth(i int) (codec.Scene, bool) {
	if s.cur == nil {
		return codec.Scene{}, false
	}
	k := s.cur.rnd.Find(int32(i))
	if k < 0 || !s.cur.hasT[k] {
		return codec.Scene{}, false
	}
	return s.cur.truth[k], true
}

// Plan implements overload.Planner: the coordinator's reconciler already
// planned this round's effective budget and degradation mode; the worker
// only obeys. Orphan rounds carry the degraded local plan in the same
// fields, so nothing downstream distinguishes the two.
func (s *clusterSource) Plan() (float64, overload.Mode) {
	return s.bEff, s.mode
}

// remoteSelector implements knapsack.Selector by deferring the solve to the
// coordinator: it ships this worker's scored candidates and blocks until
// the grant (this worker's slice of the global selection, in global
// selection order) arrives. Distributing the *solve* could never be
// bit-identical to a single gate; distributing only the scoring is.
//
// When the coordinator is gone — orphan mode, or a death mid-decide — the
// solve falls back to the local greedy under the planned budget: degraded,
// never stalled.
type remoteSelector struct {
	w    *Worker
	cost []float64 // per-stream offered cost, valid for this round's candidates
	buf  []byte
}

// Select implements knapsack.Selector. cands is the gate's active set —
// idle, quarantined and shed streams are absent, as a single gate would not
// offer them either — and goes to the global solve verbatim. The budget
// argument (the planner's bEff) is ignored while connected — the
// coordinator's grant embodies the global plan — and drives the local
// fallback solve otherwise.
func (r *remoteSelector) Select(dst []int, cands []knapsack.Candidate, budget float64) []int {
	w := r.w
	if w.src.orphan != nil {
		sel := w.greedy.Select(dst, cands, budget)
		w.src.orphan.decoded += int64(len(sel) - len(dst))
		return sel
	}
	// Park each cost in its stream's slot, where granted totals it without
	// searching the list.
	var offered float64
	for _, c := range cands {
		r.cost[c.Stream] = c.Cost
		offered += c.Cost
	}
	round := w.src.round
	r.buf = encodeCandidates(r.buf[:0], round, offered, cands)
	if err := w.send(fCandidates, r.buf); err != nil {
		if w.recoverable() {
			// Coordinator died mid-decide: settle locally rather than
			// stall; the next round recovers (re-home or orphan).
			return w.greedy.Select(dst, cands, budget)
		}
		w.fail(err)
		return dst
	}
	sess := w.sess
	// Prefer a grant already delivered over a concurrent session death.
	select {
	case g := <-w.grantCh:
		return r.granted(dst, g, round)
	default:
	}
	select {
	case g := <-w.grantCh:
		return r.granted(dst, g, round)
	case <-sess.down:
		if w.recoverable() {
			return w.greedy.Select(dst, cands, budget)
		}
		return dst
	case <-w.stop:
		// Dying mid-decide: settle the round empty; the engine then
		// surfaces the failure out of NextRound.
		return dst
	case <-w.bye:
		return dst
	}
}

// granted applies a grant frame, folding the granted cost into the orphan
// budget estimate.
func (r *remoteSelector) granted(dst []int, g grantMsg, round int64) []int {
	w := r.w
	if g.round != round {
		w.fail(fmt.Errorf("cluster: grant for round %d while deciding round %d", g.round, round))
		return dst
	}
	var cost float64
	for _, s := range g.streams {
		cost += r.cost[s]
	}
	src := w.src
	if src.grantSeen {
		src.grantEWMA += demandAlpha * (cost - src.grantEWMA)
	} else {
		src.grantEWMA = cost
		src.grantSeen = true
	}
	return append(dst, g.streams...)
}
