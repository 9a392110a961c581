package cluster

import (
	"errors"
	"fmt"
	"net"
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
// (link.go), whose loop is Run's goroutine.
type Coordinator struct {
	core *coord
	shell
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
	c := &Coordinator{}
	src := pipeline.Sparse(cfg.Source)
	c.core = newCoord(cfg, src.Truth)
	c.init(c.core.step, src)
	// 64: hellos queue while the loop is busy, without holding up accept.
	c.ln, c.accepted, c.hooks = ln, make(chan *pending, 64), &c.core.cfg
	if cfg.JournalPath != "" {
		snap, err := gobEncode(c.core.rs)
		if err == nil {
			c.jr, err = openJournal(cfg.JournalPath, snap)
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
func (c *Coordinator) PendingJoins() int { return int(c.joins.Load()) }

// Run drives the cluster: quorum, then rounds (admit → reap → plan →
// scatter round → gather candidates → global solve → scatter grants →
// observe the flight leaving the MaxInFlight window), then an orderly
// goodbye — from the core's entry (coord.enter) to the end of the run. It
// tears the shell down and returns the merged report.
func (c *Coordinator) Run() (Report, error) {
	err := c.await(event{kind: evStart}, effDone).err
	c.teardown()
	return c.core.report(), err
}

// TakeoverFromJournal elects a coordinator directly from a journal file —
// the cold-standby path (`pgcoord -takeover <journal>`): replay the log
// (tolerating a torn tail), then run the same takeover protocol a warm
// standby runs.
func (c *Coordinator) TakeoverFromJournal(path string) (Report, error) {
	rs, err := replayJournal(path)
	if err != nil {
		c.teardown()
		return c.core.report(), err
	}
	c.core.enter = func() { c.core.takeover(rs) }
	return c.Run()
}

// Standby is a warm replica of the coordinator: a Coordinator whose core
// follows the primary (failover.go) until it takes over. Decisions after the
// takeover continue the exact sequence the primary would have produced: the
// replica carries the round clock, ring membership, demand EWMAs, and AIMD
// governor state.
type Standby struct{ c *Coordinator }

// NewStandby binds the standby's own listen socket (workers re-home to it)
// and prepares a coordinator with the primary's configuration. cfg.Source
// must be an identically-seeded instance of the primary's source: a takeover
// advances it to the resume round.
func NewStandby(primary, name string, cfg CoordConfig) (*Standby, error) {
	c, err := NewCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	c.core.enter = func() { c.core.follow(primary, StandbyJoin{Name: name, Addr: c.Addr()}) }
	return &Standby{c: c}, nil
}

// Addr returns the standby's own listen address (what workers re-home to).
func (s *Standby) Addr() string { return s.c.Addr() }

// TookOver reports whether this standby was elected. Valid once Run returns.
func (s *Standby) TookOver() bool { return s.c.core.elected }

// Run follows the primary until it completes (a goodbye: the standby stands
// down with a zero report) or dies (the standby takes over and returns the
// merged report that spans both reigns).
func (s *Standby) Run() (Report, error) {
	rep, err := s.c.Run()
	if !s.TookOver() {
		return Report{}, err
	}
	return rep, err
}
