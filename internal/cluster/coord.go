package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"packetgame/internal/core"
	"packetgame/internal/decode"
	"packetgame/internal/infer"
	"packetgame/internal/knapsack"
	"packetgame/internal/overload"
	"packetgame/internal/pipeline"
	"packetgame/internal/predictor"
)

// CoordConfig configures the control plane.
type CoordConfig struct {
	// Listen is the TCP listen address (default 127.0.0.1:0).
	Listen string
	// Streams is the global stream count m; every worker's gate spans the
	// full stream-ID space so indices need no translation.
	Streams int
	// Window, Budget, Costs, Breaker, TaskIndex, UseTemporal mirror
	// core.Config; they are broadcast to every worker in the welcome.
	Window      int
	Budget      float64
	Costs       decode.CostModel
	Breaker     *core.BreakerConfig
	TaskIndex   int
	UseTemporal bool
	// Predictor, when UsePred, is the shared predictor config: workers
	// build identical weights locally from its seed.
	UsePred   bool
	Predictor predictor.Config
	// Task names the inference workload (infer.ByName on workers).
	Task string
	// Retry is the workers' decode retry policy.
	Retry decode.RetryPolicy
	// Rounds caps the run (0 = until the source EOFs).
	Rounds int
	// MinWorkers is how many workers must join before round 0 (default 1).
	MinWorkers int
	// JoinTimeout bounds the wait for the initial quorum (default 30s).
	JoinTimeout time.Duration
	// Source produces the global rounds (and ground truth) that the
	// coordinator demuxes to workers by ring ownership.
	Source pipeline.RoundSource
	// SLO arms the per-worker AIMD governors and the cluster reconciler;
	// 0 runs ungoverned at the fixed Budget (the oracle-equality mode).
	SLO time.Duration
	// Lease is how long a worker may stay silent (no frames, no
	// heartbeats) before it is declared dead (default 10s).
	Lease time.Duration
	// Heartbeat is the workers' beacon period (default Lease/4).
	Heartbeat time.Duration
	// LatencyModel, when non-nil, replaces reported wall-clock round
	// latencies with a deterministic virtual latency (chaos benchmarks
	// need governed runs to be seed-reproducible).
	LatencyModel func(worker int, grantedCost, offeredCost float64) time.Duration
	// Pipelined overlaps successive rounds: round r+1 is planned, solved,
	// and granted while round r's reports are still in flight, so the
	// report leg of the RTT is hidden instead of serialized into every
	// round. Decisions are bit-identical to a non-pipelined run at the same
	// MaxInFlight lag: the only thing pipelining changes is when the
	// coordinator *blocks* for reports, never which rounds' feedback a plan
	// has seen.
	Pipelined bool
	// MaxInFlight is the feedback lag k (default 1): before round r is
	// planned, all rounds ≤ r−k have been observed (latency fed to the
	// governors), and at most k granted rounds are unobserved at any time.
	// k=1 reproduces strict lockstep feedback timing exactly.
	MaxInFlight int
	// ReportDelay, when > 0, delays the delivery of every worker report by
	// this amount after it arrives — a deterministic one-way network-delay
	// model for the report leg. Lockstep runs serialize this delay into
	// every round; pipelined runs hide it. Decision sequences are
	// unaffected (reports carry feedback, not decisions).
	ReportDelay time.Duration
	// TransferFault, when non-nil, injects state-transfer loss: attempt
	// n of moving a stream is dropped when it returns true. Exhausted
	// transfers fall back to fresh adoption on the new owner.
	TransferFault func(stream, attempt int) bool
	// JournalPath, when set, makes the control plane durable: a snapshot +
	// append-only journal (internal/container CRC records) of ring
	// membership, the round clock, per-worker governor/demand state, and
	// accuracy counters. A standby elected after a crash replays it — or
	// the equivalent fJournalAppend frame stream — to take over.
	JournalPath string
	// RejoinWait bounds how long an elected standby holds the rejoin window
	// open for journaled members that have not yet re-homed or reconciled
	// (default 15s). The window closes as soon as every member is accounted
	// for — that is the deterministic path; the timeout is the safety net
	// for members that died with the primary.
	RejoinWait time.Duration
	// CrashAtRound (>0) simulates coordinator death at that round, at the
	// position CrashPoint selects: Run tears down abruptly — no goodbyes,
	// no orderly journal close — and returns ErrCoordinatorKilled. Chaos
	// legs use it to exercise standby election deterministically.
	CrashAtRound int64
	CrashPoint   CrashPoint
	// OnRound observes every round's global selection (tests and oracles).
	OnRound func(round int64, sel []int)
	// OnRoundEnd runs after a round fully settles (reports collected).
	OnRoundEnd func(round int64)
	// OnMembership observes admissions and reaps: joined/died hold worker
	// IDs, round is the first round the new view serves.
	OnMembership func(round int64, joined, died []int)
}

const (
	// Moving one stream's state is tried maxTransferAttempts times,
	// transferBackoff apart (wall clock: no round runs during a migration).
	maxTransferAttempts = 4
	transferBackoff     = 2 * time.Millisecond
	// compactEvery journal records past the last snapshot, the file is
	// rewritten as a fresh one.
	compactEvery = 512
)

// Report is the cluster-level run summary. Its run counters are read off the
// coordinator's replica image (what the journal and the standbys mirror), so
// a standby that took over reports both reigns and a killed primary returns
// the image at the kill. Deaths and DeadReasons are detection-time
// diagnostics: a death seen only at shutdown is never a membership record.
type Report struct {
	Rounds  int64
	Workers int // distinct workers ever admitted
	Joins   int // admissions after round 0
	Deaths  int
	Decoded int64 // globally granted decodes
	// DecisionHash folds every round's global selection (FNV-1a over
	// round numbers and selected stream IDs, in selection order): two
	// runs made the same decisions iff the hashes match.
	DecisionHash uint64
	// Transfers / TransfersLost / FreshAdoptions account state migration:
	// lost transfers (injector or dead donor) degrade to fresh adoption.
	Transfers      int64
	TransfersLost  int64
	FreshAdoptions int64
	// Merged accuracy accounting from worker finals. Observations made by
	// workers that died are lost with them (documented limitation): the
	// counters cover rounds observed by workers alive at run end.
	NegRounds, NegCorrect, PosRounds, PosCorrect int64
	DecodeFailed                                 int64
	Accuracy                                     float64
	BalancedAccuracy                             float64
	Recall                                       float64
	// SLO view over cluster rounds (round latency = slowest worker).
	P99        time.Duration
	SLOMisses  int64
	ModeRounds [4]int64
	Finals     map[int]WorkerFinal
	// DeadReasons records why each reaped worker was declared dead.
	DeadReasons map[int]string
}

type inFrame struct {
	typ  uint8
	body []byte
	err  error
}

// wconn is the coordinator's handle on one worker connection. The link is
// nil only in the dead placeholder of a member that never re-homed.
type wconn struct {
	*link
	id     int
	frames chan inFrame
	// spare is how frame bodies come home: the reader takes its next body
	// buffer from here (else starts a new one), and the coordinator loop hands
	// a body back once it has decoded it. Two slots: a pipelined round has a
	// candidates and a report body out at once.
	spare    chan []byte
	lastSeen atomic.Int64 // unix nanos, updated by the reader on any frame
	dead     bool         // coordinator-loop only
	// prev is the delta-coding membership state of this connection's round
	// frames: the ascending stream ids sent in the last round frame.
	prev []int32
	// reports stashes report frames that arrive while the coordinator is
	// awaiting another frame type from this worker — with pipelined rounds,
	// a report for an earlier in-flight round legitimately precedes the
	// current round's candidates on the wire. FIFO, coordinator-loop only.
	reports []inFrame
	// delayCh, when non-nil, routes this worker's report frames through the
	// ReportDelay delivery model.
	delayCh chan delayedReport
}

// delayedReport is one report frame held back by the ReportDelay model until
// its virtual delivery time.
type delayedReport struct {
	f   inFrame
	due time.Time
}

// CrashPoint selects where within a round a simulated coordinator crash
// (CrashAtRound) fires. The three points exercise the distinct worker-side
// recovery states: quiescent, mid-solve, and partially-scattered.
type CrashPoint int

const (
	// CrashBoundary dies at the round boundary, before planning: every
	// worker is quiescent and fully reported, so a takeover resumes with
	// bit-identical state.
	CrashBoundary CrashPoint = iota
	// CrashMidRound dies after gathering candidates but before the global
	// solve: every worker is blocked in its solve and must settle the
	// round locally.
	CrashMidRound
	// CrashMidScatter dies after sending the round frame to half the live
	// workers: the fleet disagrees about whether the round ever started.
	CrashMidScatter
)

// ErrCoordinatorKilled is returned by Run when a simulated crash
// (CrashAtRound) fires.
var ErrCoordinatorKilled = errors.New("cluster: coordinator killed (simulated crash)")

// Coordinator is the control plane: it owns the placement ring, the budget
// reconciler, and the per-round global knapsack solve, and speaks PGCP to
// the data-plane workers. Run drives the whole cluster in lockstep rounds.
type Coordinator struct {
	cfg CoordConfig
	src pipeline.SparseRoundSource // cfg.Source, dense or not, as sparse rounds
	ln  net.Listener
	// Identified connections queue by hello type — join, standby, re-join
	// (re-home or reconcile-only) — until the next consistent point.
	joinCh    chan *pending
	standbyCh chan *pending
	rejoinCh  chan *pending
	accept    chan struct{} // closed to stop the accept loop

	workers map[int]*wconn
	ring    *Ring
	owners  []int
	nextID  int
	epoch   uint64
	seq     uint64
	rc      *reconciler
	lats    []time.Duration // observed round latencies, for the report's p99
	greedy  knapsack.Greedy

	// rs is the coordinator's own replica image — the same state machine a
	// standby maintains, fed the same records at the same points. It is
	// what snapshots serialize, so a snapshot is consistent with the
	// journal position by construction, even under pipelined rounds.
	rs       *replicaState
	jr       *journal // nil when JournalPath is unset
	jerr     error    // first journal write failure (fatal at the next boundary)
	standbys []*standbyConn
	jbuf     []byte // scratch for fJournalAppend frame bodies

	// rep holds what only this coordinator saw — Deaths, DeadReasons, Finals;
	// report() fills in everything else from rs.
	rep Report

	// inflight is the FIFO of granted-but-unobserved rounds, oldest first;
	// it never exceeds cfg.MaxInFlight entries across a round boundary. The
	// slots past its length are retired flights whose buffers the next
	// rounds reuse.
	inflight []flight

	// liveList is the sorted live-worker list every per-worker loop of a
	// round runs in, and slot its inverse (worker id → position in
	// liveList, -1 for anyone else). Both change only at membership
	// boundaries.
	liveList []int
	slot     []int32

	// round scratch
	cands   []knapsack.Candidate // gathered candidates, in arrival order
	cost    []float64            // per-stream offered cost, valid for this round's candidates
	grants  [][]int              // per-live-position grant lists, global selection order
	candMsg candidatesMsg
	sel     []int
	scatter [][]roundPacket // per-live-position round packets, ascending by stream
	grantsB []byte
	roundB  []byte
}

// NewCoordinator binds the listen socket and starts accepting joins.
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) {
	if cfg.Streams <= 0 {
		return nil, fmt.Errorf("cluster: Streams required")
	}
	if cfg.Source == nil {
		return nil, fmt.Errorf("cluster: Source required")
	}
	if cfg.Task == "" {
		return nil, fmt.Errorf("cluster: Task required")
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.MinWorkers <= 0 {
		cfg.MinWorkers = 1
	}
	if cfg.JoinTimeout <= 0 {
		cfg.JoinTimeout = 30 * time.Second
	}
	if cfg.Lease <= 0 {
		cfg.Lease = 10 * time.Second
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = cfg.Lease / 4
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 1
	}
	if cfg.RejoinWait <= 0 {
		cfg.RejoinWait = 15 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:       cfg,
		src:       pipeline.Sparse(cfg.Source),
		ln:        ln,
		joinCh:    make(chan *pending, 16),
		standbyCh: make(chan *pending, 16),
		rejoinCh:  make(chan *pending, 64),
		accept:    make(chan struct{}),
		workers:   make(map[int]*wconn),
		ring:      &Ring{},
		owners:    make([]int, cfg.Streams),
		cost:      make([]float64, cfg.Streams),
		rc:        newReconciler(cfg.SLO, cfg.Budget),
		rep:       Report{Finals: make(map[int]WorkerFinal), DeadReasons: make(map[int]string)},
	}
	c.rs = newReplicaState()
	c.rs.Streams = cfg.Streams
	c.rs.Budget = cfg.Budget
	c.rs.Window = cfg.Window
	c.rs.Task = cfg.Task
	c.rs.SLONs = int64(cfg.SLO)
	if cfg.JournalPath != "" {
		snap, err := gobEncode(c.rs)
		if err != nil {
			ln.Close()
			return nil, err
		}
		c.jr, err = openJournal(cfg.JournalPath, compactEvery, snap)
		if err != nil {
			ln.Close()
			return nil, err
		}
	}
	queues := map[uint8]chan *pending{fJoin: c.joinCh, fStandbyJoin: c.standbyCh, fRejoin: c.rejoinCh}
	go serveLinks(ln, c.accept, func(hello uint8) chan<- *pending { return queues[hello] })
	return c, nil
}

// Addr returns the bound listen address for workers to dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// PendingJoins reports how many handshaken workers await admission. Chaos
// tests use it to pin a join to a deterministic round: dial from a round
// hook, then block until the join request is queued — the very next round
// boundary admits it.
func (c *Coordinator) PendingJoins() int { return len(c.joinCh) }

// clusterConfig is the welcome payload shared with every worker.
func (c *Coordinator) clusterConfig() ClusterConfig {
	return ClusterConfig{
		Streams:        c.cfg.Streams,
		Window:         c.cfg.Window,
		Budget:         c.cfg.Budget,
		Costs:          c.cfg.Costs,
		Breaker:        c.cfg.Breaker,
		UsePred:        c.cfg.UsePred,
		Predictor:      c.cfg.Predictor,
		TaskIndex:      c.cfg.TaskIndex,
		UseTemporal:    c.cfg.UseTemporal,
		Task:           c.cfg.Task,
		Retry:          c.cfg.Retry,
		HeartbeatEvery: c.cfg.Heartbeat,
	}
}

// readWorker pumps one worker's frames into its channel. Heartbeats are
// folded into lastSeen here so they never clog the round machinery; reports
// detour through the ReportDelay delivery model when one is configured.
//
// Every body that crosses wc.frames belongs to whoever receives it, until
// reuse hands it back; a heartbeat's never leaves, so its buffer stays in hand.
func (c *Coordinator) readWorker(wc *wconn) {
	var buf []byte
	place := func(uint8) *[]byte {
		if buf == nil {
			select {
			case buf = <-wc.spare:
			default:
			}
		}
		return &buf
	}
	for {
		typ, body, err := wc.recv(0, place)
		wc.lastSeen.Store(time.Now().UnixNano())
		if err == nil && typ == fHeartbeat {
			continue
		}
		buf = nil // body is on its way out
		if wc.delayCh == nil || (err == nil && typ != fReport) {
			wc.frames <- inFrame{typ, body, err}
		} else {
			// The terminal error takes the reports' FIFO too, undelayed: it
			// must not overtake reports still in the delay pump — frame order
			// pins the round a death is detected at, so two same-seed runs
			// reap the worker at the same boundary.
			dr := delayedReport{f: inFrame{typ, body, err}}
			if err == nil {
				dr.due = time.Now().Add(c.cfg.ReportDelay)
			}
			select {
			case wc.delayCh <- dr:
			case <-c.accept:
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// delayReports forwards one worker's reports at their virtual delivery time.
// A single goroutine per connection keeps the per-worker report order FIFO.
func (c *Coordinator) delayReports(wc *wconn) {
	for {
		select {
		case dr := <-wc.delayCh:
			if d := time.Until(dr.due); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-t.C:
				case <-c.accept:
					t.Stop()
					return
				}
			}
			select {
			case wc.frames <- dr.f:
			case <-c.accept:
				return
			}
		case <-c.accept:
			return
		}
	}
}

// await blocks for the next frame of the wanted type from wc, bounded by the
// worker's lease (heartbeats extend it). Any error, unexpected frame, or
// lease expiry marks the worker dead and returns false.
func (c *Coordinator) await(wc *wconn, want uint8) (inFrame, bool) {
	if wc.dead {
		return inFrame{}, false
	}
	for {
		lease := time.Until(time.Unix(0, wc.lastSeen.Load()).Add(c.cfg.Lease))
		if lease <= 0 {
			c.markDead(wc, fmt.Errorf("lease expired"))
			return inFrame{}, false
		}
		t := time.NewTimer(lease)
		select {
		case f := <-wc.frames:
			t.Stop()
			if f.err != nil {
				c.markDead(wc, f.err)
				return inFrame{}, false
			}
			if f.typ == fReport && want != fReport {
				// Pipelined rounds: a report for an earlier in-flight round
				// can precede the frame we want; stash it for awaitReport.
				wc.reports = append(wc.reports, f)
				continue
			}
			if f.typ != want {
				c.markDead(wc, fmt.Errorf("expected frame %d, got %d", want, f.typ))
				return inFrame{}, false
			}
			return f, true
		case <-t.C:
			// Re-check lastSeen: a heartbeat may have extended the lease
			// while we slept.
		}
	}
}

// awaitReport returns the worker's next report frame, consuming the stash of
// reports that overtook other awaited frames before blocking for new ones.
func (c *Coordinator) awaitReport(wc *wconn) (inFrame, bool) {
	if wc.dead {
		return inFrame{}, false
	}
	if len(wc.reports) > 0 {
		f := wc.reports[0]
		wc.reports = append(wc.reports[:0], wc.reports[1:]...)
		return f, true
	}
	return c.await(wc, fReport)
}

// reuse hands a decoded frame's body back to the reader that read it; with no
// room it is dropped.
func (wc *wconn) reuse(body []byte) {
	select {
	case wc.spare <- body:
	default:
	}
}

func (c *Coordinator) markDead(wc *wconn, err error) {
	if wc.dead {
		return
	}
	wc.dead = true
	wc.close()
	c.rep.Deaths++
	c.rep.DeadReasons[wc.id] = err.Error()
	c.rc.removeWorker(wc.id)
}

// live returns the live worker IDs, sorted: every per-worker iteration runs
// in this order so float accumulation and frame ordering are deterministic.
func (c *Coordinator) live() []int {
	ids := make([]int, 0, len(c.workers))
	for id, wc := range c.workers {
		if !wc.dead {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// refreshLive rebuilds the round loop's live list, its id → position index
// and the per-position grant buffers. The round loop calls it only at
// membership boundaries, after drainAll — no flight still reads the old
// list — so a steady-state round neither allocates nor sorts for it.
func (c *Coordinator) refreshLive() {
	c.liveList = c.live()
	c.slot = c.slot[:0]
	for k, id := range c.liveList {
		for len(c.slot) <= id {
			c.slot = append(c.slot, -1)
		}
		c.slot[id] = int32(k)
	}
	for len(c.grants) < len(c.liveList) {
		c.grants = append(c.grants, nil)
		c.scatter = append(c.scatter, nil)
	}
}

// slotOf returns worker id's position in the live list, or -1.
func (c *Coordinator) slotOf(id int) int {
	if id < 0 || id >= len(c.slot) {
		return -1
	}
	return int(c.slot[id])
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// flight is one granted-but-unobserved round: everything needed to gather
// its reports later and feed the governors in the exact order a lockstep
// run would.
type flight struct {
	round int64
	ids   []int // live workers at grant time, sorted
	mode  overload.Mode
	bEff  float64
	sel   []int // global selection, for the journal's round record
	// Per-worker columns, indexed by position in ids.
	granted  []float64
	offered  []float64
	reported []bool // a valid report arrived: lats and deltas hold it
	lats     []time.Duration
	deltas   []AccDeltas // accuracy deltas from the reports
	gathered bool
}

// zeroed returns s resized to n zero values, reusing its storage.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// nextFlight returns the retired slot just past the in-flight window, reset
// for round r over the current live list; the round loop commits it by
// extending c.inflight over it once the grants are out. An abandoned round
// (simulated crash) simply never commits.
func (c *Coordinator) nextFlight(r int64, bEff float64, mode overload.Mode) *flight {
	k := len(c.inflight)
	if k == cap(c.inflight) {
		c.inflight = append(c.inflight, flight{})[:k]
	}
	f := &c.inflight[:k+1][k]
	n := len(c.liveList)
	f.round, f.ids, f.mode, f.bEff, f.gathered = r, c.liveList, mode, bEff, false
	f.granted = zeroed(f.granted, n)
	f.offered = zeroed(f.offered, n)
	f.reported = zeroed(f.reported, n)
	f.lats = zeroed(f.lats, n)
	f.deltas = zeroed(f.deltas, n)
	return f
}

// retireFlight pops the oldest flight, parking it past the window's end so
// its buffers are reused.
func (c *Coordinator) retireFlight() {
	f := c.inflight[0]
	n := copy(c.inflight, c.inflight[1:])
	c.inflight[n] = f
	c.inflight = c.inflight[:n]
}

// candidatesFrom awaits wc's candidates for round r into c.candMsg: all for
// streams it owns, or it is marked dead.
func (c *Coordinator) candidatesFrom(wc *wconn, r int64) bool {
	f, ok := c.await(wc, fCandidates)
	if !ok {
		return false
	}
	err := decodeCandidates(f.body, c.cfg.Streams, &c.candMsg)
	wc.reuse(f.body) // decodeCandidates copied everything out
	if err == nil && c.candMsg.round != r {
		err = fmt.Errorf("candidates for round %d during round %d", c.candMsg.round, r)
	}
	for _, cand := range c.candMsg.cands {
		if err == nil && c.owners[cand.Stream] != wc.id {
			err = fmt.Errorf("candidate for unowned stream %d", cand.Stream)
		}
	}
	if err != nil {
		c.markDead(wc, err)
	}
	return err == nil
}

// reportFrom awaits wc's report for round r, likewise.
func (c *Coordinator) reportFrom(wc *wconn, r int64) (reportMsg, bool) {
	f, ok := c.awaitReport(wc)
	if !ok {
		return reportMsg{}, false
	}
	msg, err := decodeReport(f.body)
	wc.reuse(f.body)
	if err != nil || msg.round != r {
		c.markDead(wc, fmt.Errorf("bad report (round %d, want %d): %v", msg.round, r, err))
		return msg, false
	}
	return msg, true
}

// gatherFlight collects the flight's reports (idempotent). Lockstep mode
// calls it at the end of the flight's own round — blocking through the full
// report delay; pipelined mode defers it until the flight falls due, by
// which time the reports have usually already arrived.
func (c *Coordinator) gatherFlight(f *flight) {
	if f.gathered {
		return
	}
	f.gathered = true
	for k, id := range f.ids {
		wc := c.workers[id]
		if wc == nil || wc.dead {
			continue
		}
		msg, ok := c.reportFrom(wc, f.round)
		if !ok {
			continue
		}
		lat := msg.latency
		if c.cfg.LatencyModel != nil {
			lat = c.cfg.LatencyModel(id, f.granted[k], f.offered[k])
		}
		f.reported[k], f.lats[k], f.deltas[k] = true, lat, msg.deltas
	}
}

// observeFlight feeds the gathered latencies into the governors and closes
// the round out — per worker in the flight's sorted id order, so governor
// updates happen in exactly the lockstep order.
func (c *Coordinator) observeFlight(f *flight) {
	var roundLat time.Duration
	var agg AccDeltas
	for k, id := range f.ids {
		if !f.reported[k] {
			continue
		}
		agg.add(f.deltas[k])
		lat := f.lats[k]
		c.rc.observeLatency(id, lat, 1)
		if lat > roundLat {
			roundLat = lat
		}
	}
	c.lats = append(c.lats, roundLat)
	c.journalRound(f, agg, roundLat, c.cfg.SLO > 0 && roundLat > c.cfg.SLO)
	if c.cfg.OnRoundEnd != nil {
		c.cfg.OnRoundEnd(f.round)
	}
}

// drainAll gathers and observes every in-flight round, oldest first. After
// it returns, every live worker has settled everything it was granted and is
// quiescent (blocked awaiting its next round frame) — the precondition for
// membership changes and shutdown.
func (c *Coordinator) drainAll() {
	for i := range c.inflight {
		c.gatherFlight(&c.inflight[i])
		c.observeFlight(&c.inflight[i])
	}
	c.inflight = c.inflight[:0]
}

// anyDead reports whether any tracked worker has been marked dead.
func (c *Coordinator) anyDead() bool {
	for _, wc := range c.workers {
		if wc.dead {
			return true
		}
	}
	return false
}

// Run drives the cluster: quorum, then rounds (admit → reap → plan →
// scatter round → gather candidates → global solve → scatter grants →
// gather/observe due reports), then an orderly goodbye. With Pipelined the
// report leg overlaps the next round; either way at most MaxInFlight rounds
// are unobserved when a round is planned. It returns the merged report.
func (c *Coordinator) Run() (Report, error) {
	defer c.teardown()

	// Initial quorum: admissions before round 0 need no state transfer —
	// every gate is genuinely fresh at clock 0, exactly like the oracle.
	if err := c.awaitQuorum(0, "nothing to re-join: cluster has not started"); err != nil {
		return c.report(), err
	}
	return c.runRounds(0)
}

// awaitQuorum is the one wait for MinWorkers live workers, bounded by
// JoinTimeout. Nothing is in flight: joins are admitted at round, standbys
// attach to a trivially consistent snapshot, re-joins are refused.
func (c *Coordinator) awaitQuorum(round int64, rejoinReason string) error {
	deadline := time.After(c.cfg.JoinTimeout)
	for len(c.live()) < c.cfg.MinWorkers {
		select {
		case p := <-c.joinCh:
			if err := c.admit(p, round); err != nil {
				return err
			}
		case p := <-c.standbyCh:
			if err := c.attachStandby(p); err != nil {
				return err
			}
		case p := <-c.rejoinCh:
			refuseRejoin(p, rejoinReason)
		case <-deadline:
			return fmt.Errorf("cluster: %d/%d workers joined within %v", len(c.live()), c.cfg.MinWorkers, c.cfg.JoinTimeout)
		}
	}
	return nil
}

// teardown releases everything Run or a takeover acquired. The journal is
// fsynced and closed BEFORE the listener is released: a standby elected
// after this coordinator goes away must never race a half-flushed log.
func (c *Coordinator) teardown() {
	close(c.accept)
	if c.jr != nil {
		c.jr.Close()
	}
	c.ln.Close()
	for _, wc := range c.workers {
		if wc.link != nil {
			wc.close()
		}
	}
	for _, sc := range c.standbys {
		sc.close()
	}
	for _, q := range []chan *pending{c.joinCh, c.standbyCh, c.rejoinCh} {
		for len(q) > 0 {
			(<-q).close()
		}
	}
}

// runRounds drives the round loop from round start. The primary enters it
// at 0; an elected standby enters it at the resume round after replaying
// the journal and re-homing the fleet.
func (c *Coordinator) runRounds(start int64) (Report, error) {
	for r := start; c.cfg.Rounds == 0 || r < int64(c.cfg.Rounds); r++ {
		if c.jerr != nil {
			return c.report(), c.jerr
		}
		if c.crashDue(r, CrashBoundary) {
			return c.report(), ErrCoordinatorKilled
		}
		// Membership changes land exactly on round boundaries, and only
		// after every in-flight round has been drained: each live worker is
		// then quiescent (blocked awaiting this round's frame), so stream
		// state can move without racing a decision. Steady state skips the
		// drain entirely — that is what lets pipelined rounds overlap.
		// Standby attachment waits for the same quiescent point so the
		// snapshot it streams is consistent with the journal position.
		// The live list is rebuilt here and nowhere else (entering the loop
		// counts as a boundary), so steady-state rounds reuse it.
		if r == start || len(c.joinCh) > 0 || len(c.standbyCh) > 0 || len(c.rejoinCh) > 0 || c.anyDead() {
			c.drainAll()
			for drained := false; !drained; {
				select {
				case p := <-c.joinCh:
					if err := c.admit(p, r); err != nil {
						return c.report(), err
					}
				case p := <-c.standbyCh:
					if err := c.attachStandby(p); err != nil {
						return c.report(), err
					}
				case p := <-c.rejoinCh:
					if err := c.primaryRejoin(p, r); err != nil {
						return c.report(), err
					}
				default:
					drained = true
				}
			}
			if err := c.reap(r); err != nil {
				return c.report(), err
			}
			c.refreshLive()
		}
		live := c.liveList
		if len(live) == 0 {
			return c.report(), fmt.Errorf("cluster: no live workers at round %d", r)
		}

		rnd, err := c.src.NextRoundSparse()
		if err == io.EOF {
			break
		}
		if err != nil {
			return c.report(), fmt.Errorf("cluster: source: %w", err)
		}

		bEff, mode := c.rc.plan(live)
		fl := c.nextFlight(r, bEff, mode)

		// Scatter: demux the active streams to their owners' live positions —
		// O(active), not O(m). A boundary reaps until nobody is dead, so a
		// stream whose owner has no position is orphaned this round and
		// reassigned at the next boundary. Every live worker receives the
		// round frame (delta-coded against what it got last round): an empty
		// round still advances its clocks.
		for n := range live {
			c.scatter[n] = c.scatter[n][:0]
		}
		for k, id32 := range rnd.IDs {
			i := int(id32)
			n := c.slotOf(c.owners[i])
			if n < 0 {
				continue
			}
			rp := roundPacket{stream: i, pkt: rnd.Pkts[k]}
			if t, ok := c.src.Truth(i); ok {
				rp.truth, rp.hasT = t, true
			}
			c.scatter[n] = append(c.scatter[n], rp)
		}
		for n, id := range live {
			if n == (len(live)+1)/2 && c.crashDue(r, CrashMidScatter) {
				return c.report(), ErrCoordinatorKilled
			}
			wc := c.workers[id]
			c.roundB = encodeRoundDelta(c.roundB[:0], r, bEff, mode, c.scatter[n], wc.prev)
			wc.prev = wc.prev[:0]
			for _, rp := range c.scatter[n] {
				wc.prev = append(wc.prev, int32(rp.stream))
			}
			if err := wc.send(fRound, c.roundB); err != nil {
				c.markDead(wc, err)
			}
		}

		// Gather candidates into the global compact list: a single gate's
		// solve sees zero items for idle, quarantined, and shed streams;
		// distributed workers simply never offer those, so the gathered
		// list holds exactly the non-zero slots of the dense array a single
		// gate would build. Workers own disjoint stream sets and the solve
		// ties on the stream id, so the lists are appended as they arrive —
		// no merge into stream order — and each candidate's cost is parked
		// in its stream's slot for the grant totals.
		c.cands = c.cands[:0]
		for k, id := range live {
			if !c.candidatesFrom(c.workers[id], r) {
				continue
			}
			c.cands = append(c.cands, c.candMsg.cands...)
			for _, cand := range c.candMsg.cands {
				c.cost[cand.Stream] = cand.Cost
			}
			fl.offered[k] = c.candMsg.offered
			c.rc.observeDemand(id, c.candMsg.offered)
		}

		// A mid-round crash lands BEFORE the solve: the primary never
		// computes (or hashes) a selection for this round, so the workers'
		// local settlements cannot disagree with a decision that exists.
		if c.crashDue(r, CrashMidRound) {
			return c.report(), ErrCoordinatorKilled
		}

		c.solveGrant(fl)
		if c.cfg.OnRound != nil {
			c.cfg.OnRound(r, c.sel)
		}
		for k, id := range live {
			wc := c.workers[id]
			if wc.dead {
				continue
			}
			c.grantsB = encodeGrant(c.grantsB[:0], r, c.grants[k])
			if err := wc.send(fGrant, c.grantsB); err != nil {
				c.markDead(wc, err)
			}
		}

		// Push the round into the in-flight window. Lockstep gathers its
		// reports right here — serializing the report leg of the RTT into
		// every round; pipelined defers the gather until the flight falls
		// due, overlapping it with the next round's plan/solve. Either way
		// a flight is *observed* (latency fed to the governors) exactly
		// when it leaves the MaxInFlight window, so the decision sequence
		// depends only on the lag k, never on Pipelined.
		fl.sel = append(fl.sel[:0], c.sel...)
		c.inflight = c.inflight[:len(c.inflight)+1]
		if !c.cfg.Pipelined {
			c.gatherFlight(fl)
		}
		for len(c.inflight) >= c.cfg.MaxInFlight {
			c.gatherFlight(&c.inflight[0])
			c.observeFlight(&c.inflight[0])
			c.retireFlight()
		}
	}

	// Observe whatever is still in flight before saying goodbye.
	c.drainAll()
	c.shutdown()
	return c.report(), nil
}

// solveGrant is the coordinator's decision step. The solve is the exact
// greedy a single giant gate runs: the ordering kernel ties on the stream id
// itself, so over the gathered list — whatever order the workers' lists were
// appended in — the selection is bit-identical to the dense solve, in time
// linear in the candidates. One pass over the selection then buckets it per
// owner, keeping global selection order within each worker's grant, and
// totals each worker's granted cost from the per-stream slots. A stream
// whose owner is not in the flight's live list is granted to no one.
// Steady state allocates nothing.
func (c *Coordinator) solveGrant(f *flight) {
	c.sel = c.greedy.Select(c.sel[:0], c.cands, f.bEff)
	for k := range f.ids {
		c.grants[k] = c.grants[k][:0]
	}
	for _, s := range c.sel {
		if k := c.slotOf(c.owners[s]); k >= 0 {
			c.grants[k] = append(c.grants[k], s)
			f.granted[k] += c.cost[s]
		}
	}
}

// shutdown says goodbye to every live worker and merges their finals.
// Standbys get a goodbye too: an orderly completion must not look like a
// death, or the standby would take over an already-finished run. Entering it
// is a boundary: a takeover with no round left to play built no live list.
func (c *Coordinator) shutdown() {
	for _, sc := range c.standbys {
		sc.send(fGoodbye, nil)
	}
	c.refreshLive()
	for _, id := range c.liveList {
		wc := c.workers[id]
		if err := wc.send(fGoodbye, nil); err != nil {
			c.markDead(wc, err)
		}
	}
	for _, id := range c.liveList {
		f, ok := c.await(c.workers[id], fFinal)
		if !ok {
			continue
		}
		var fin WorkerFinal
		if err := gobDecode(f.body, &fin); err != nil {
			continue
		}
		c.rep.Finals[id] = fin
	}
}

// report is the run summary as of now. The replica's per-round accuracy
// deltas (shipped inside every report frame) carry almost all observations;
// a worker's final is only the tail it had not yet reported — so a death at
// any point loses at most one round of that worker's observations.
func (c *Coordinator) report() Report {
	rep, rs := c.rep, c.rs
	rep.Rounds, rep.Decoded, rep.DecisionHash = rs.Rounds, rs.Decoded, rs.Hash
	rep.Workers, rep.Joins = rs.Workers, rs.Joins
	rep.Transfers, rep.TransfersLost, rep.FreshAdoptions = rs.Transfers, rs.TransfersLost, rs.FreshAdoptions
	rep.SLOMisses, rep.ModeRounds = rs.SLOMisses, rs.ModeRounds
	acc := rs.Acc
	for _, fin := range rep.Finals {
		acc.add(AccDeltas{NegRounds: fin.NegRounds, NegCorrect: fin.NegCorrect,
			PosRounds: fin.PosRounds, PosCorrect: fin.PosCorrect, DecodeFailed: fin.DecodeFailed})
	}
	rep.NegRounds, rep.NegCorrect, rep.DecodeFailed = acc.NegRounds, acc.NegCorrect, acc.DecodeFailed
	rep.PosRounds, rep.PosCorrect = acc.PosRounds, acc.PosCorrect
	if total := rep.NegRounds + rep.PosRounds; total > 0 {
		rep.Accuracy = float64(rep.NegCorrect+rep.PosCorrect) / float64(total)
	}
	if rep.PosRounds > 0 {
		rep.Recall = float64(rep.PosCorrect) / float64(rep.PosRounds)
	}
	// 0 when no round was scored.
	rep.BalancedAccuracy, _ = infer.BalancedAccuracy(rep.NegRounds, rep.NegCorrect, rep.PosRounds, rep.PosCorrect)
	// P99 covers only the rounds this coordinator drove.
	rep.P99 = p99(c.lats)
	return rep
}

// install is the one place a worker connection comes alive, under ring
// identity id: lease stamped, report-delay pump if configured, reader started.
func (c *Coordinator) install(id int, p *pending) *wconn {
	wc := &wconn{link: p.link, id: id, frames: make(chan inFrame, 16), spare: make(chan []byte, 2)}
	wc.lastSeen.Store(time.Now().UnixNano())
	if c.cfg.ReportDelay > 0 {
		wc.delayCh = make(chan delayedReport, 64)
		go c.delayReports(wc)
	}
	c.workers[id] = wc
	go c.readWorker(wc)
	return wc
}

// admit welcomes one pending worker at round r: assign the next ID, ship
// the config, add its ring points, and migrate the streams whose arcs it
// now owns. Admissions at round 0 skip migration entirely — nothing has
// state yet, and a fresh slot at clock 0 is exactly the oracle's state. The
// membership record follows the migration, carrying its transfer counts.
func (c *Coordinator) admit(p *pending, r int64) error {
	var ji JoinInfo
	if gobDecode(p.hello, &ji) != nil {
		p.close()
		return nil // failed admission, not a cluster error
	}
	id := c.nextID
	c.nextID++
	c.epoch++
	body, err := gobEncode(&Welcome{WorkerID: id, Epoch: c.epoch, CurrentRound: r, Cfg: c.clusterConfig(),
		Standbys: c.standbyAddrs()})
	if err != nil {
		p.close()
		return err
	}
	if p.send(fWelcome, body) != nil {
		return nil // failed admission (the link closed itself), not a cluster error
	}
	wc := c.install(id, p)
	if err := c.rc.addWorker(id); err != nil {
		return err
	}
	prev := append([]int(nil), c.owners...)
	c.ring.Add(id)
	c.ring.Owners(c.owners)
	rec := memberRecord{Round: r, Joined: []memberInfo{{ID: id, Name: ji.Name}}}
	if c.rs.Workers > 0 && r > 0 {
		c.migrate(wc, prev, &rec)
	}
	c.journalMember(&rec)
	c.notifyMembership(r, []int{id}, nil)
	return nil
}

// migrate moves exactly the streams whose arcs moved — consistent hashing
// guarantees they all moved TO the newcomer wc — counting the outcome in rec.
func (c *Coordinator) migrate(wc *wconn, prev []int, rec *memberRecord) {
	var orphans []int // streams whose state is lost: fresh-adopt
	donors, moved := movedStreams(prev, c.owners, prev)
	for _, d := range donors {
		// A live donor exports and resets its streams, replying with their
		// state; one that is dead, or dies mid-retire, took the state with it.
		var blobs []StreamBlob
		if dwc := c.workers[d]; dwc == nil || dwc.dead || !c.ctrl(dwc, fRetire, moved[d], fState, &blobs) {
			orphans = append(orphans, moved[d]...)
			continue
		}
		kept, lost := c.faultTransfers(blobs, rec)
		if len(kept) > 0 {
			c.ctrl(wc, fState, kept, fStateAck, nil)
		}
		orphans = append(orphans, lost...)
	}
	if len(orphans) > 0 {
		sort.Ints(orphans)
		c.shipFresh(wc, orphans, rec)
	}
}

// movedStreams groups the streams whose owner differs between prev and now
// under key[stream] (the old owner, or the new); keys and groups ascend.
func movedStreams(prev, now, key []int) ([]int, map[int][]int) {
	groups := map[int][]int{}
	for i := range now {
		if now[i] != prev[i] {
			groups[key[i]] = append(groups[key[i]], i)
		}
	}
	keys := make([]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys, groups
}

// ctrl runs one sequenced control exchange with a quiescent worker: typ goes
// out with the next sequence number and payload; the wantReply frame must
// echo the number, its payload decoded into out. A failure marks wc dead.
func (c *Coordinator) ctrl(wc *wconn, typ uint8, payload any, wantReply uint8, out any) bool {
	c.seq++
	body, err := encodeCtrl(c.seq, payload)
	if err == nil {
		err = wc.send(typ, body)
	}
	if err != nil {
		c.markDead(wc, err)
		return false
	}
	f, ok := c.await(wc, wantReply)
	if !ok {
		return false
	}
	if seq, err := decodeCtrl(f.body, out); err != nil || seq != c.seq {
		c.markDead(wc, fmt.Errorf("bad reply to control frame %d (seq %d, want %d): %v", typ, seq, c.seq, err))
		return false
	}
	return true
}

// faultTransfers runs each blob through the transfer-fault injector with
// bounded retry/backoff; exhausted streams are returned as lost.
func (c *Coordinator) faultTransfers(blobs []StreamBlob, rec *memberRecord) (kept []StreamBlob, lost []int) {
	for _, b := range blobs {
		delivered := false
		for attempt := 1; attempt <= maxTransferAttempts; attempt++ {
			if c.cfg.TransferFault != nil && c.cfg.TransferFault(b.Stream, attempt) {
				rec.TransfersLost++
				time.Sleep(transferBackoff)
				continue
			}
			delivered = true
			break
		}
		if delivered {
			kept = append(kept, b)
			rec.Transfers++
		} else {
			lost = append(lost, b.Stream)
		}
	}
	return kept, lost
}

// shipFresh tells the new owner to adopt streams with honest zero state.
func (c *Coordinator) shipFresh(wc *wconn, streams []int, rec *memberRecord) {
	if c.ctrl(wc, fImportFresh, streams, fStateAck, nil) {
		rec.FreshAdoptions += int64(len(streams))
	}
}

// reap removes dead workers from the ring and fresh-adopts their streams on
// the survivors. Their in-flight learned state died with them; fresh
// adoption is the fail-safe (never fabricated) recovery. Loops until the
// membership is stable — an adopter may itself die mid-reap.
func (c *Coordinator) reap(r int64) error {
	for {
		var dead []int
		for id, wc := range c.workers {
			if wc.dead {
				dead = append(dead, id)
			}
		}
		if len(dead) == 0 {
			return nil
		}
		sort.Ints(dead)
		prev := append([]int(nil), c.owners...)
		for _, id := range dead {
			c.ring.Remove(id)
			c.rc.removeWorker(id)
			delete(c.workers, id)
			c.epoch++
		}
		if len(c.live()) == 0 {
			return fmt.Errorf("cluster: all workers dead at round %d (reasons: %v)", r, c.rep.DeadReasons)
		}
		c.ring.Owners(c.owners)
		rec := memberRecord{Round: r, Died: dead}
		ids, adopted := movedStreams(prev, c.owners, c.owners)
		for _, id := range ids {
			// An adopter that is dead by now is the next pass's to handle.
			if wc := c.workers[id]; wc != nil && !wc.dead {
				c.shipFresh(wc, adopted[id], &rec)
			}
		}
		c.journalMember(&rec)
		c.notifyMembership(r, nil, dead)
	}
}

func (c *Coordinator) notifyMembership(r int64, joined, died []int) {
	if c.cfg.OnMembership != nil {
		c.cfg.OnMembership(r, joined, died)
	}
}
