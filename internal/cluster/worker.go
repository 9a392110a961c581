package cluster

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"packetgame/internal/core"
	"packetgame/internal/decode"
	"packetgame/internal/infer"
	"packetgame/internal/metrics"
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
	// rejoinReplyWait bounds the wait for a re-join's verdict (the standby
	// may hold its rejoin window open for slower members).
	rejoinReplyWait = 30 * time.Second
)

// errCrashed marks an injected crash (distinguished from real failures in
// Wait's error).
var errCrashed = errors.New("cluster: injected worker crash")

// Worker is one data-plane process: it runs the full gate over the
// global stream-ID space — scoring only the streams the coordinator routes
// to it — and defers the knapsack solve to the coordinator through a remote
// selector that trades candidate frames for grant frames inside Decide.
//
// Its protocol is core (session.go); the Worker is its shell (link.go). The
// engine's goroutine is the worker's event loop: its source and selector
// await the core's answer, and in between the shell steps the core with what
// the session's reader brings. The shell's source is the local one orphan
// mode pulls (nil: not armed); its err is what the run ended with, valid
// once Wait returns.
type Worker struct {
	core *wcore
	eng  *pipeline.Engine
	shell
	running sync.WaitGroup
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
	l, err := dialLink(addr, 0)
	if err != nil {
		return nil, err
	}
	hello, _ := gobEncode(&JoinInfo{Name: opts.Name}) // plain values: nothing to fail
	typ, body, err := l.exchange(fJoin, hello, 0)
	w := &Worker{}
	if err = answer(typ, body, err, fWelcome, &wel); err == nil {
		err = w.build(wel, opts)
	}
	if err != nil {
		l.close()
		return nil, err
	}
	w.core.conn = w.attach(l)
	w.running.Add(1)
	go w.run()
	return w, nil
}

// build materializes the core, gate, fleet, and engine from the welcomed
// config. Every worker builds the predictor locally from the shared config:
// seeded init makes the weights bit-identical across workers and the
// single-gate oracle, so no weight tensors ever cross the wire.
func (w *Worker) build(wel Welcome, opts WorkerOptions) error {
	cfg, m := wel.Cfg, wel.Cfg.Streams
	c := &wcore{
		cfg: cfg, opts: opts, over: &metrics.OverloadStats{},
		id: wel.WorkerID, epoch: wel.Epoch, standbys: wel.Standbys,
		open: true, owned: make([]bool, m), cost: make([]float64, m), offered: make([]uint32, m),
	}
	c.rec.round = wel.CurrentRound - 1
	if o := opts.Orphan; o != nil {
		w.src = pipeline.Sparse(o.Source)
		c.truth = w.src.Truth
	}
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
	c.gate, err = core.NewGate(core.Config{
		Streams:     cfg.Streams,
		Window:      cfg.Window,
		Budget:      cfg.Budget,
		Costs:       cfg.Costs,
		Predictor:   pred,
		TaskIndex:   cfg.TaskIndex,
		UseTemporal: cfg.UseTemporal,
		Breaker:     cfg.Breaker,
		Selector:    (*remoteSelector)(w),
		Planner:     (*clusterSource)(w),
		Overload:    c.over,
	})
	if err != nil {
		return fmt.Errorf("cluster: worker gate: %w", err)
	}
	if wel.CurrentRound > 0 {
		if err := c.gate.AdvanceTo(wel.CurrentRound); err != nil {
			return fmt.Errorf("cluster: worker clock: %w", err)
		}
	}
	workers := opts.DecodeWorkers
	if workers <= 0 {
		workers = 2
	}
	// The engine runs MaxInFlight 1, overlap off, no Deadline: the gate loop
	// pulls its source only once the previous round was acked — every decode
	// job done — fed back, and its roundWork recycled with its packet
	// pointers cleared. The round record's release point (NextRoundSparse)
	// rests on that.
	w.eng, err = pipeline.New(pipeline.Config{
		Source:      (*clusterSource)(w),
		Gate:        c.gate,
		Task:        task,
		Costs:       cfg.Costs,
		Workers:     workers,
		Retry:       cfg.Retry,
		WrapDecoder: opts.WrapDecoder,
		MaxInFlight: 1,
		Overload:    c.over,
	})
	if err != nil {
		return fmt.Errorf("cluster: worker engine: %w", err)
	}
	// The fleet must exist before the first round: a worker joining
	// mid-run receives state-transfer frames (which import monitor state)
	// before its first round frame.
	c.fleet = w.eng.EnsureFleet(cfg.Streams)
	w.core = c
	w.init(c.step, w.src)
	w.beat = w.heartbeat
	return nil
}

// Wait blocks until the worker's run ends and returns its final error (nil
// on an orderly goodbye or a reconciled orphan retirement, errCrashed
// after an injected crash).
func (w *Worker) Wait() error {
	w.running.Wait()
	if errors.Is(w.err, io.EOF) {
		return nil
	}
	return w.err
}

// Crashed reports whether the worker ended via the injected-crash hook.
// Valid once Wait returns.
func (w *Worker) Crashed() bool { return errors.Is(w.err, errCrashed) }

// ID returns the coordinator-assigned worker ID.
func (w *Worker) ID() int { return w.core.id }

// Gate exposes the worker's gate (tests inspect warming/breaker state).
func (w *Worker) Gate() *core.Gate { return w.core.gate }

// Orphan returns the orphan-mode episode summary (zero if never orphaned).
// Valid once Wait returns.
func (w *Worker) Orphan() OrphanReport { return w.core.orphanR }
