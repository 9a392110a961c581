package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"packetgame/internal/cluster"
	"packetgame/internal/pipeline"
)

// cluster-loopback: one coordinator and two workers in this process, over
// real loopback TCP, lockstep, ungoverned, journal on. Coordinator.Run owns
// the round loop, so the source wrapper does the block bookkeeping: when a
// block runs dry it stops the clock, settles the block, generates the next
// one, forces a GC and restarts the clock — the lockstep cluster is idle
// all the while, blocked on its source.
//
// T0 is the source returning a round; the selection is known at
// CoordConfig.OnRound (scatter + gather + global solve) and the round ends
// at CoordConfig.OnRoundEnd (grant + worker decode + reports). The workers'
// gates live inside cluster.Worker and cannot be wrapped, so in the traced
// run the per-layer core/bandit/knapsack/decode readings come from the
// single-gate oracle: one core.Gate, wrapped and traced like any other, fed
// the same rounds while the cluster waits. Its decisions must equal the
// cluster's (cluster.oracle_match).

type clusterRig struct {
	spec    workloadSpec
	gen     *generator
	p       *probe
	feed    *blockFeed
	coord   *cluster.Coordinator
	workers []*cluster.Worker
	dir     string
	journal string

	blocks int // timed blocks to run
	br     bracket
	blk    *block // the block the cluster is consuming

	state    int           // clusterFresh, clusterWarming or clusterRunning
	warm     chan struct{} // closed when warm-up is through
	start    chan bool     // true = measure, false = wind down unmeasured
	finished chan struct{}
	rep      cluster.Report
	runErr   error

	tEnter   []int64 // source call entry per block position
	settleMs []float64
	gapMs    []float64
	lo0      uint64
	wire     uint64
	heapMB   float64

	// Traced run only.
	oracle       *rig
	oracleSels   [][]int
	journalSize  int64
	journalBytes int64
	journalN     int64
}

const (
	clusterFresh = iota
	clusterWarming
	clusterRunning
)

func newClusterRig(spec workloadSpec, seed int64, traced bool, blocks, mark int) (system, error) {
	c := &clusterRig{
		spec: spec, blocks: blocks, warm: make(chan struct{}), start: make(chan bool, 1),
		finished: make(chan struct{}),
	}
	c.gen = newGenerator(spec, seed, runtime.GOMAXPROCS(0), mark)
	c.p = newProbe(spec.streams, spec.maxSelected(), mark)
	c.p.noDecode = true
	c.feed = &blockFeed{p: c.p, m: spec.streams, refill: c.refill, onEnter: c.entered}
	if traced {
		var err error
		if c.oracle, err = newOracle(spec, c.gen, mark); err != nil {
			return nil, err
		}
		c.oracle.p.epoch = c.p.epoch // one time base for both probes' spans
	}

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	var err error
	if c.dir, err = os.MkdirTemp(".bench_build", "cluster-"); err != nil {
		return nil, err
	}
	c.journal = filepath.Join(c.dir, "coord.pgj")
	gc := gateConfig(spec, nil)
	cfg := cluster.CoordConfig{
		Streams: spec.streams, Window: gc.Window, Budget: gc.Budget,
		UseTemporal: true, Breaker: gc.Breaker,
		Task: "pc", MinWorkers: clusterWorkers, JoinTimeout: 10 * time.Second,
		Source:      sparseSource{c.feed},
		MaxInFlight: spec.inFlight,
		JournalPath: c.journal,
		OnRound:     c.onRound,
		OnRoundEnd:  c.onRoundEnd,
	}
	if c.coord, err = cluster.NewCoordinator(cfg); err != nil {
		os.RemoveAll(c.dir)
		return nil, err
	}
	go func() {
		c.rep, c.runErr = c.coord.Run()
		close(c.finished)
	}()
	for i := 0; i < clusterWorkers; i++ {
		w, err := cluster.Dial(c.coord.Addr(), cluster.WorkerOptions{Name: fmt.Sprintf("w%d", i), DecodeWorkers: decodeWorkers})
		if err != nil {
			c.close()
			return nil, fmt.Errorf("worker %d: %w", i, err)
		}
		c.workers = append(c.workers, w)
	}
	select {
	case <-c.warm:
	case <-c.finished:
		err := c.runErr
		c.close()
		return nil, fmt.Errorf("cluster ended during warm-up: %v", err)
	}
	return c, nil
}

// entered stamps the coordinator's call into the source: the end of the
// previous round's between-round bookkeeping.
func (c *clusterRig) entered() {
	if k := c.p.pulled; c.p.blk != nil && k < len(c.tEnter) {
		c.tEnter[k] = c.p.now()
	}
}

func (c *clusterRig) onRound(round int64, sel []int) {
	c.p.decidedRound(sel, nil)
}

func (c *clusterRig) onRoundEnd(round int64) {
	k := int(round) - c.blk.base
	if k < 0 || k >= len(c.p.tDone) {
		return
	}
	c.p.tDone[k].Store(c.p.now())
	if c.oracle != nil {
		// Journal growth, sampled where the record was just appended;
		// compaction shrinks the file and is skipped.
		if st, err := os.Stat(c.journal); err == nil {
			if d := st.Size() - c.journalSize; d > 0 && c.p.isTimed(k) {
				c.journalBytes += d
				c.journalN++
			}
			c.journalSize = st.Size()
		}
	}
}

// refill runs on the coordinator's goroutine whenever the block is dry.
func (c *clusterRig) refill() bool {
	if c.blk != nil {
		c.settleBlock()
	}
	n, from := c.spec.blockSize, 0
	switch c.state {
	case clusterFresh:
		c.state = clusterWarming
		n, from = warmRounds, warmRounds
	case clusterWarming:
		c.state = clusterRunning
		close(c.warm)
		if !<-c.start {
			return false
		}
	}
	if len(c.br.blocks) == c.blocks {
		// Read the live heap now, while coordinator and workers still hold
		// their state; once Run returns it is all garbage.
		c.gen.fleet, c.feed.cur, c.p.blk = nil, nil, nil
		c.heapMB = liveHeapMB()
		return false
	}
	collectOnce(func() {
		c.blk = c.gen.next(n)
		if c.oracle != nil {
			c.runOracle(c.blk, from)
		}
		c.p.load(c.blk, from)
		if cap(c.tEnter) < n {
			c.tEnter = make([]int64, n)
		}
		c.tEnter = c.tEnter[:n]
	})
	if from == 0 {
		c.lo0 = loopbackBytes()
		c.br.start()
	}
	return true
}

// settleBlock stops the clock on the block just consumed and folds it in.
func (c *clusterRig) settleBlock() {
	p := c.p
	if c.br.running {
		c.br.stop(p.decided, c.blk.packets())
		c.wire += loopbackBytes() - c.lo0
	}
	for k := 0; k < p.decided && k < len(p.t0); k++ {
		if !p.isTimed(k) {
			continue
		}
		end := p.tDone[k].Load()
		c.settleMs = append(c.settleMs, msOf(end-p.tDecide[k]))
		next := end
		if k+1 < p.pulled {
			next = c.tEnter[k+1]
			c.gapMs = append(c.gapMs, msOf(next-end))
		}
		if c.oracle != nil {
			tr, round := c.oracle.p.tr, c.blk.base+k
			root := tr.add(spClusterRound, round, -1, p.t0[k], next)
			tr.add(spClusterDecide, round, root, p.t0[k], p.tDecide[k])
			tr.add(spClusterSettle, round, root, p.tDecide[k], end)
			tr.add(spClusterGap, round, root, end, next)
		}
	}
	p.finishBlock()
	c.blk = nil
}

func (c *clusterRig) run() error {
	c.start <- true
	return c.wait()
}

func (c *clusterRig) wait() error {
	<-c.finished
	if c.blk != nil {
		c.settleBlock() // the run ended mid-block (an error, or a round cap)
	}
	if c.runErr != nil {
		c.p.fail(c.runErr)
	}
	for i, w := range c.workers {
		if err := w.Wait(); err != nil {
			c.p.fail(fmt.Errorf("worker %d: %w", i, err))
		}
	}
	c.workers = nil
	return c.runErr
}

func (c *clusterRig) close() {
	select {
	case <-c.finished:
	default:
		// A failed set-up: let the coordinator wind down.
		select {
		case c.start <- false:
		default:
		}
	}
	if c.coord != nil {
		c.wait()
	}
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}

func (c *clusterRig) outcome() *outcome {
	o := &outcome{
		p: c.p, br: c.br,
		digest: c.gen.digest, markDigest: c.gen.markDigest, genMs: c.gen.genMsPerRound(),
		layer: map[string]reading{},
	}
	rounds := float64(c.p.acct.rounds)
	n := int64(len(c.settleMs))
	o.layer["cluster.decide_ms_p50"] = reading{quantile(c.p.log.decideMs, 0.50), n}
	o.layer["cluster.decide_ms_p99"] = reading{quantile(c.p.log.decideMs, 0.99), n}
	o.layer["cluster.settle_ms_p50"] = reading{quantile(c.settleMs, 0.50), n}
	o.layer["cluster.gap_ms_p50"] = reading{quantile(c.gapMs, 0.50), n}
	o.layer["cluster.wire_bytes_per_round"] = reading{ratio(float64(c.wire), rounds), n}
	if int64(c.p.acct.hashRounds) != c.rep.Rounds {
		c.p.fail(fmt.Errorf("coordinator reports %d rounds, the source handed over %d", c.rep.Rounds, c.p.acct.hashRounds))
	}
	if c.oracle != nil {
		o.layer["cluster.journal_bytes_per_round"] = reading{ratio(float64(c.journalBytes), float64(c.journalN)), c.journalN}
		c.oracle.fillTraced(o)
		o.pipeWall = c.oracle.br.total(len(c.oracle.br.blocks)).wall
		c.p.errs.Add(c.oracle.p.errs.Load())
		if err, _ := c.oracle.p.firstErr.Load().(error); err != nil {
			o.notes = append(o.notes, "oracle: "+err.Error())
		}
		match := 1.0
		if c.oracle.p.acct.hash != c.p.acct.hash || cluster.OracleHash(c.oracleSels) != c.rep.DecisionHash {
			match = 0
		}
		if match == 0 {
			o.failAll = true
			o.notes = append(o.notes, "cluster decisions differ from the single-gate oracle")
		}
		o.layer["cluster.oracle_match"] = reading{match, int64(len(c.oracleSels))}
	}
	o.heapMB = c.heapMB
	return o
}

// newOracle builds the single-gate oracle: the gate configuration the
// coordinator hands its workers, on one sequential engine.
func newOracle(spec workloadSpec, gen *generator, mark int) (*rig, error) {
	spec.pipelined, spec.inFlight = false, 1
	r := &rig{spec: spec, gen: gen}
	if err := r.assemble(true, mark); err != nil {
		return nil, err
	}
	r.feed = &blockFeed{p: r.p, m: spec.streams}
	var err error
	r.eng, err = pipeline.New(r.engineConfig(sparseSource{r.feed}))
	return r, err
}

// runOracle feeds one block through the oracle, timing it like any block.
func (c *clusterRig) runOracle(blk *block, from int) {
	o := c.oracle
	o.p.load(blk, from)
	if from == 0 {
		o.br.start()
	}
	_, err := o.eng.Run(len(blk.rounds))
	o.br.stop(len(blk.rounds), blk.packets())
	if err != nil {
		c.p.fail(fmt.Errorf("oracle: %w", err))
	}
	for k := 0; k < o.p.decided && k < len(blk.rounds); k++ {
		sel := o.p.selBuf[o.p.selOff[k]:o.p.selOff[k+1]]
		row := make([]int, len(sel))
		for j, i := range sel {
			row[j] = int(i)
		}
		c.oracleSels = append(c.oracleSels, row)
	}
	o.p.finishBlock()
}
