package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/decode"
)

// The probe measures the system from outside: a source wrapper stamps T0
// when it hands a round over, a core.Decider wrapper stamps when the
// selection is known, and a decoder wrapper stamps each round's last
// decode. In an untraced run that is all it does — three clock reads per
// round plus one per decoded packet — so the end-to-end numbers carry no
// tracing cost. The traced run (trace.go) hangs spans and shadow layers on
// the same hooks.

// blockStat is what one timed block cost. The metrics are read off the sum
// over a run's blocks; a traced run over the first blocks of a seed is held
// against the sum over the same blocks of the untraced run.
type blockStat struct {
	rounds  int
	packets int64
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	mallocs uint64
}

// bracket measures wall time, process CPU and allocation over timed blocks
// only. Generator work and forced GCs happen between stop and start.
type bracket struct {
	blocks []blockStat

	t0      time.Time
	cpu0    time.Duration
	ms0     runtime.MemStats
	ms1     runtime.MemStats
	running bool
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (b *bracket) start() {
	runtime.ReadMemStats(&b.ms0)
	b.cpu0 = processCPU()
	b.t0 = time.Now()
	b.running = true
}

// stop closes the running block, if any; rounds and packets say what it held.
func (b *bracket) stop(rounds int, packets int64) {
	if !b.running {
		return
	}
	wall := time.Since(b.t0)
	cpu := processCPU() - b.cpu0
	runtime.ReadMemStats(&b.ms1)
	b.running = false
	b.blocks = append(b.blocks, blockStat{
		rounds: rounds, packets: packets, wall: wall, cpu: cpu,
		alloc: b.ms1.TotalAlloc - b.ms0.TotalAlloc, mallocs: b.ms1.Mallocs - b.ms0.Mallocs,
	})
}

// total sums the first n timed blocks (all of them when there are fewer).
func (b *bracket) total(n int) blockStat {
	var t blockStat
	for _, s := range b.blocks[:min(n, len(b.blocks))] {
		t.rounds += s.rounds
		t.packets += s.packets
		t.wall += s.wall
		t.cpu += s.cpu
		t.alloc += s.alloc
		t.mallocs += s.mallocs
	}
	return t
}

// roundLog is what the probe keeps per measured round.
type roundLog struct {
	decideMs []float64 // T0 → selection known
	roundMs  []float64 // T0 → last selected packet decoded (or OnRoundEnd)
}

// probe is shared by the three wrappers of one system under test.
type probe struct {
	m     int
	epoch time.Time
	tr    *tracer // nil in an untraced run

	// Per-block state, reset by load. Rounds are identified by their
	// position in the block; the engine pulls, decides and (per round)
	// decodes in order, so the k-th source call, the k-th Decide and the
	// decodes attributed to round k belong together.
	blk       *block
	timedFrom int // rounds at block positions ≥ timedFrom are measured
	pulled    int
	decided   int
	t0        []int64 // ns since epoch
	tDecide   []int64
	tDone     []atomic.Int64
	selOff    []int32 // selOff[k]..selOff[k+1] indexes selBuf
	selBuf    []int32

	selPerRound int // most selections a round can hold

	// seqRound maps (stream, seq mod 4) of a selected packet to its
	// position in the block, so the decoder wrapper can attribute a decode
	// to its round with ≤4 rounds in flight. Entries hold position+1. An
	// entry is always rewritten by the Decide that selects a packet before
	// that packet can reach the decoder, so stale entries are never read.
	seqRound []uint32
	noDecode bool // the round end comes from elsewhere (cluster OnRoundEnd)

	errs     atomic.Int64 // error returns from any wrapped call
	firstErr atomic.Value

	log  roundLog
	acct accounting
}

// newProbe sizes a probe for m streams and at most selPerRound selections a
// round, so recording a selection never allocates inside a timed block.
func newProbe(m, selPerRound, mark int) *probe {
	return &probe{m: m, selPerRound: selPerRound, epoch: time.Now(), seqRound: make([]uint32, 4*m), acct: newAccounting(m, mark)}
}

func (p *probe) now() int64 { return int64(time.Since(p.epoch)) }

func (p *probe) fail(err error) {
	if err == nil || errors.Is(err, io.EOF) {
		return
	}
	p.errs.Add(1)
	p.firstErr.CompareAndSwap(nil, err)
}

func (p *probe) isTimed(k int) bool { return k >= p.timedFrom }

// load points the probe at the next block; rounds before position
// timedFrom are warm-up.
func (p *probe) load(b *block, timedFrom int) {
	n := len(b.rounds)
	p.blk, p.timedFrom, p.pulled, p.decided = b, timedFrom, 0, 0
	if cap(p.t0) < n {
		p.t0 = make([]int64, n)
		p.tDecide = make([]int64, n)
		p.tDone = make([]atomic.Int64, n)
		p.selOff = make([]int32, n+1)
	}
	p.t0, p.tDecide, p.tDone, p.selOff = p.t0[:n], p.tDecide[:n], p.tDone[:n], p.selOff[:n+1]
	for k := range p.tDone {
		p.tDone[k].Store(0)
	}
	p.selOff[0] = 0
	if cap(p.selBuf) < n*p.selPerRound {
		p.selBuf = make([]int32, 0, n*p.selPerRound)
	}
	p.selBuf = p.selBuf[:0]
	if p.tr != nil {
		p.tr.beginBlock(n)
	}
}

// pulledRound is called by the source wrapper as it returns round k.
func (p *probe) pulledRound() {
	if p.pulled < len(p.t0) {
		p.t0[p.pulled] = p.now()
	}
	p.pulled++
}

// decidedRound is called by the gate wrapper when a Decide* returns.
func (p *probe) decidedRound(sel []int, err error) {
	k := p.decided
	p.decided++
	if err != nil {
		p.fail(fmt.Errorf("decide: %w", err))
	}
	if k >= len(p.tDecide) {
		return
	}
	p.tDecide[k] = p.now()
	for _, i := range sel {
		p.selBuf = append(p.selBuf, int32(i))
	}
	p.selOff[k+1] = int32(len(p.selBuf))
	if p.noDecode {
		return
	}
	// Attribute upcoming decodes of the selected packets to this round.
	gr := &p.blk.rounds[k]
	for _, i := range sel {
		if pos := gr.pos(int32(i)); pos >= 0 {
			p.seqRound[4*i+int(gr.pkts[pos].Seq&3)] = uint32(k + 1)
		}
	}
}

// decodedPacket is called by the decoder wrapper after each decode.
func (p *probe) decodedPacket(pkt *codec.Packet, err error) {
	now := p.now()
	if err != nil {
		p.fail(fmt.Errorf("decode stream %d seq %d: %w", pkt.StreamID, pkt.Seq, err))
	}
	if pkt.StreamID < 0 || pkt.StreamID >= p.m {
		return
	}
	k := int(p.seqRound[4*pkt.StreamID+int(pkt.Seq&3)]) - 1
	if k < 0 || k >= len(p.tDone) {
		return
	}
	for d := &p.tDone[k]; ; {
		old := d.Load()
		if now <= old || d.CompareAndSwap(old, now) {
			return
		}
	}
}

// finishBlock folds a completed block into the round log and the
// correctness accounting. It runs outside the timed region.
func (p *probe) finishBlock() {
	n := p.decided
	if n > len(p.t0) {
		n = len(p.t0)
	}
	for k := 0; k < n; k++ {
		sel := p.selBuf[p.selOff[k]:p.selOff[k+1]]
		end := p.tDone[k].Load()
		if end < p.tDecide[k] {
			end = p.tDecide[k] // nothing was selected
		}
		if p.tr != nil {
			p.tr.finishRound(k, &p.blk.rounds[k], sel, end)
		}
		p.acct.settle(p.blk.base+k, &p.blk.rounds[k], sel, p.isTimed(k))
		if !p.isTimed(k) {
			continue
		}
		p.log.decideMs = append(p.log.decideMs, msOf(p.tDecide[k]-p.t0[k]))
		p.log.roundMs = append(p.log.roundMs, msOf(end-p.t0[k]))
	}
}

// findID binary-searches an ascending id list.
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

// blockFeed serves a loaded block to the system, one round per call.
type blockFeed struct {
	p     *probe
	m     int
	cur   *genRound
	round codec.Round
	// refill, when set, is called when the block runs dry (the program owns
	// the loop); it returns false to end the run.
	refill func() bool
	// onEnter, when set, is called as the system calls into the source.
	onEnter func()
}

func (f *blockFeed) advance() (*genRound, error) {
	p := f.p
	if f.onEnter != nil {
		f.onEnter()
	}
	if p.blk == nil || p.pulled >= len(p.blk.rounds) {
		if f.refill == nil || !f.refill() {
			return nil, io.EOF
		}
	}
	f.cur = &p.blk.rounds[p.pulled]
	return f.cur, nil
}

func (f *blockFeed) truth(i int) (codec.Scene, bool) {
	if f.cur == nil {
		return codec.Scene{}, false
	}
	if pos := f.cur.pos(int32(i)); pos >= 0 {
		return f.cur.truth[pos], true
	}
	return codec.Scene{}, false
}

// denseSource hands rounds over as []*codec.Packet — the paper's
// Algorithm-1 signature. It deliberately implements neither RoundLister nor
// SparseRoundSource, so the engine takes the dense path end to end. Only
// always-active fleets use it, so a round's packet slice is already dense.
type denseSource struct{ f *blockFeed }

func (s denseSource) NextRound() ([]*codec.Packet, error) {
	gr, err := s.f.advance()
	if err != nil {
		return nil, err
	}
	s.f.p.pulledRound()
	return gr.pkts, nil
}

func (s denseSource) Truth(i int) (codec.Scene, bool) { return s.f.truth(i) }

// sparseSource hands rounds over as codec.Round (active ids + packets).
type sparseSource struct{ f *blockFeed }

func (s sparseSource) NextRound() ([]*codec.Packet, error) {
	return nil, errors.New("benchmark: sparse source pulled dense")
}

func (s sparseSource) NextRoundSparse() (*codec.Round, error) {
	gr, err := s.f.advance()
	if err != nil {
		return nil, err
	}
	s.f.round = codec.Round{M: s.f.m, IDs: gr.ids, Pkts: gr.pkts}
	s.f.p.pulledRound()
	return &s.f.round, nil
}

func (s sparseSource) Truth(i int) (codec.Scene, bool) { return s.f.truth(i) }

// probeGate wraps the gate. It embeds *core.Gate so every optional method
// the engine type-switches on (DecideRoundAppend, DecideSparseAppend,
// FeedbackExt, FeedbackFull, SetMaxPending) is still there, and overrides
// the four Decide* and three Feedback* entry points.
type probeGate struct {
	*core.Gate
	p *probe
}

func (g *probeGate) Decide(pkts []*codec.Packet) ([]int, error) {
	return g.DecideAppend(pkts, nil)
}

func (g *probeGate) DecideAppend(pkts []*codec.Packet, dst []int) ([]int, error) {
	if tr := g.p.tr; tr != nil {
		return tr.decide(g, nil, pkts, func() ([]int, error) { return g.Gate.DecideAppend(pkts, dst) })
	}
	sel, err := g.Gate.DecideAppend(pkts, dst)
	g.p.decidedRound(sel, err)
	return sel, err
}

func (g *probeGate) DecideRoundAppend(pkts []*codec.Packet, nonIdle []int32, dst []int) ([]int, error) {
	if tr := g.p.tr; tr != nil {
		return tr.decide(g, nil, pkts, func() ([]int, error) { return g.Gate.DecideRoundAppend(pkts, nonIdle, dst) })
	}
	sel, err := g.Gate.DecideRoundAppend(pkts, nonIdle, dst)
	g.p.decidedRound(sel, err)
	return sel, err
}

func (g *probeGate) DecideSparseAppend(r *codec.Round, dst []int) ([]int, error) {
	if tr := g.p.tr; tr != nil {
		return tr.decide(g, r, nil, func() ([]int, error) { return g.Gate.DecideSparseAppend(r, dst) })
	}
	sel, err := g.Gate.DecideSparseAppend(r, dst)
	g.p.decidedRound(sel, err)
	return sel, err
}

func (g *probeGate) Feedback(selected []int, necessary []bool) error {
	return g.FeedbackFull(selected, necessary, nil, nil)
}

func (g *probeGate) FeedbackExt(selected []int, necessary, failed []bool) error {
	return g.FeedbackFull(selected, necessary, failed, nil)
}

func (g *probeGate) FeedbackFull(selected []int, necessary, failed, deferred []bool) error {
	if tr := g.p.tr; tr != nil {
		return tr.feedback(g, selected, necessary, failed, deferred)
	}
	err := g.Gate.FeedbackFull(selected, necessary, failed, deferred)
	if err != nil {
		g.p.fail(fmt.Errorf("feedback: %w", err))
	}
	return err
}

// probeDecoder wraps the engine's decoder (pipeline.Config.WrapDecoder).
type probeDecoder struct {
	inner decode.PacketDecoder
	p     *probe
}

func (d *probeDecoder) Decode(pkt *codec.Packet) (decode.Frame, error) {
	if tr := d.p.tr; tr != nil {
		t := d.p.now()
		f, err := d.inner.Decode(pkt)
		tr.decodeBusy.Add(d.p.now() - t)
		d.p.decodedPacket(pkt, err)
		return f, err
	}
	f, err := d.inner.Decode(pkt)
	d.p.decodedPacket(pkt, err)
	return f, err
}
