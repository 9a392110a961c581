package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"packetgame/internal/core"
	"packetgame/internal/decode"
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
	// heartbeats) while the coordinator awaits it before it is declared
	// dead (default 10s).
	Lease time.Duration
	// Heartbeat is the workers' beacon period (default Lease/4).
	Heartbeat time.Duration
	// LatencyModel, when non-nil, replaces reported wall-clock round
	// latencies with a deterministic virtual latency (chaos benchmarks
	// need governed runs to be seed-reproducible).
	LatencyModel func(worker int, grantedCost, offeredCost float64) time.Duration
	// MaxInFlight is the feedback lag k (default 1): before round r is
	// planned, all rounds ≤ r−k have been observed (latency fed to the
	// governors), and at most k granted rounds are unobserved at any time.
	// k=1 settles every round before the next is planned; k > 1 lets the
	// reports of one round travel while the next ones are solved.
	MaxInFlight int
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
	maxTransferAttempts = 4   // tries at moving one stream's state
	compactEvery        = 512 // journal records past a snapshot before the file is rewritten
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

// Coordinator is the control plane: the placement ring, the budget
// reconciler and the per-round global solve, speaking PGCP to the workers.
// The protocol is core (core.go, failover.go); the Coordinator is its shell
// (link.go): one reader per connection turns frames into events, and one
// loop — Run's goroutine — owns the core, the only timer, the source and the
// journal file, carrying out each step's effects, hooks included, in order.
type Coordinator struct {
	core     *coord
	ln       net.Listener
	src      pipeline.SparseRoundSource
	jr       *journal      // nil without JournalPath
	accepted chan *pending // 64: hellos queue while the loop is busy, or (a standby) following
	inbox    chan event    // frames and deaths, each connection's in order; 256 keeps readers off the loop's back
	stop     chan struct{} // closed at teardown: frees accept and readers
	peers    map[connID]*peer
	last     connID
	timer    *time.Timer
	fired    bool // the timer went off; its event waits behind the inbox
	pull     bool // the core asked for a round
	// hellos counts identified connections not yet handed to the core, joins
	// the joins among them — both counted before they are queued — and
	// queued the joins the core holds. PendingJoins is joins + queued.
	hellos, joins, queued atomic.Int32
	once                  sync.Once
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
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{ln: ln, src: pipeline.Sparse(cfg.Source), accepted: make(chan *pending, 64),
		inbox: make(chan event, 256), stop: make(chan struct{}), peers: make(map[connID]*peer)}
	c.core = newCoord(cfg, c.src.Truth)
	if cfg.JournalPath != "" {
		snap, err := gobEncode(c.core.rs)
		if err == nil {
			c.jr, err = openJournal(cfg.JournalPath, compactEvery, snap)
		}
		if err != nil {
			ln.Close()
			return nil, err
		}
	}
	go serveLinks(ln, c.stop, c.route)
	return c, nil
}

// Addr returns the bound listen address for workers to dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// PendingJoins reports how many handshaken workers await admission. Chaos
// tests use it to pin a join to a deterministic round: dial from a round
// hook, then block until the join request is queued — the very next round
// boundary admits it.
func (c *Coordinator) PendingJoins() int { return int(c.joins.Load() + c.queued.Load()) }

// Run drives the cluster: quorum, then rounds (admit → reap → plan →
// scatter round → gather candidates → global solve → scatter grants →
// observe the flight leaving the MaxInFlight window), then an orderly
// goodbye. It returns the merged report.
func (c *Coordinator) Run() (Report, error) {
	err := c.run(c.core.run(time.Now(), nil))
	return c.core.report(), err
}
