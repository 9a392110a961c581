package predictor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"packetgame/internal/nn"
)

// This file is the predictor's batched inference fast path (§5.2 deployment
// budget: the plug-in must cost orders of magnitude less than the decodes it
// saves). The trained multi-view network is compiled once into flat float32
// graphs (nn.Compile); every gating round then packs all m streams' feature
// windows into one [m × views × w] batch, runs the two towers and the head
// through the fused kernels, and writes confidences into caller scratch.
// All chunk-scoped buffers come from sync.Pools, so the steady-state path
// performs (next to) no allocations and is safe for concurrent callers as
// long as the weights are frozen (the gate serializes training against
// prediction).

// fastPath is one compiled snapshot of the predictor's weights.
type fastPath struct {
	iTower *nn.Compiled
	pTower *nn.Compiled
	head   *nn.Compiled
}

func (p *Predictor) compileFast() (*fastPath, error) {
	fp := &fastPath{}
	var err error
	if p.iTower != nil {
		if fp.iTower, err = nn.Compile(p.iTower, []int{1, p.cfg.Window}); err != nil {
			return nil, err
		}
	}
	if p.pTower != nil {
		if fp.pTower, err = nn.Compile(p.pTower, []int{1, p.cfg.Window}); err != nil {
			return nil, err
		}
	}
	if fp.head, err = nn.Compile(p.head, []int{p.fusedDim}); err != nil {
		return nil, err
	}
	return fp, nil
}

// fast returns the compiled snapshot, rebuilding lazily after any weight
// change (Train, Trainer.Step, Load invalidate it).
func (p *Predictor) fast() (*fastPath, error) {
	p.fpMu.Lock()
	defer p.fpMu.Unlock()
	if p.fp == nil {
		fp, err := p.compileFast()
		if err != nil {
			return nil, err
		}
		p.fp = fp
	}
	return p.fp, nil
}

// invalidateFast drops the compiled snapshot so the next fast-path call
// recompiles against the current weights, and advances the weights version.
func (p *Predictor) invalidateFast() {
	p.fpMu.Lock()
	p.fp = nil
	p.version++
	p.fpMu.Unlock()
}

// Version identifies the current weights: it advances on every mutation
// (Train, Trainer.Step, Load). Score caches key cached confidences on it —
// a cached output is reusable only while the version that produced it is
// still current, since the compiled forward is deterministic for fixed
// weights and input.
func (p *Predictor) Version() uint64 {
	p.fpMu.Lock()
	defer p.fpMu.Unlock()
	return p.version
}

// Compile eagerly builds the float32 inference graph (otherwise built on the
// first PredictInto) and reports any compilation error up front.
func (p *Predictor) Compile() error {
	_, err := p.fast()
	return err
}

// The forward runs in chunks of nn.ChunkRows rows: pack → towers → fuse →
// head for one chunk before the next, so a chunk's activations stay in cache
// from stage to stage and scratch is bounded by the chunk, not the batch.
// Every kernel is row-independent and chunks write disjoint slices of out,
// so any split of the rows — and any assignment of chunks to goroutines —
// produces the same bits as one serial pass.
const chunkRows = nn.ChunkRows

// fanOutRows is the smallest batch PredictInto spreads over several cores:
// 64 chunks, ~3 ms of serial work on the reference core. A fork-join ends
// when its slowest worker does, so every call is exposed to one scheduler
// stall — a helper's P still parked, or its thread losing the core to a
// neighbour for a timeslice — whatever the batch size. On a shared host
// that exposure, not the arithmetic, sets the run-to-run spread of a forward
// that is only a millisecond long (DESIGN.md §10 has the measurement), so
// smaller batches stay on the caller's core.
const fanOutRows = 64 * chunkRows

// batchScratch holds one chunk's packed buffers; a worker reuses it across
// the chunks it takes.
type batchScratch struct {
	xi, xp, iOut, pOut, fused, conf []float32
}

var batchPool = sync.Pool{New: func() interface{} { return new(batchScratch) }}

func grow32(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// PredictInto runs the batched compiled forward for feats, writing the
// [len(feats) × Tasks] confidences row-major into out. A batch of at least
// fanOutRows rows is shared out chunk by chunk over up to GOMAXPROCS
// goroutines, all of which have exited when it returns; the result does not
// depend on how many ran. It allocates nothing in steady state on the serial
// path (a fan-out allocates its job record and one closure per goroutine)
// and matches forwardBatch to float32 precision (the equivalence is
// property-tested). Feature windows must have the model's window length for
// every enabled size view.
func (p *Predictor) PredictInto(feats []Features, out []float64) error {
	fp, err := p.fast()
	if err != nil {
		return err
	}
	n := len(feats)
	if n == 0 {
		return nil
	}
	w, tasks := p.cfg.Window, p.cfg.Tasks
	if len(out) < n*tasks {
		return fmt.Errorf("predictor: out holds %d values, batch needs %d", len(out), n*tasks)
	}
	for k := range feats {
		if fp.iTower != nil && len(feats[k].ISizes) != w {
			return fmt.Errorf("predictor: sample %d I-window %d, model window %d", k, len(feats[k].ISizes), w)
		}
		if fp.pTower != nil && len(feats[k].PSizes) != w {
			return fmt.Errorf("predictor: sample %d P-window %d, model window %d", k, len(feats[k].PSizes), w)
		}
	}
	workers := 1
	if n >= fanOutRows {
		workers = min(runtime.GOMAXPROCS(0), (n+chunkRows-1)/chunkRows)
	}
	if workers == 1 {
		// No goroutine shares this job, so it stays on the stack.
		job := predictJob{p: p, fp: fp, feats: feats, out: out}
		job.run()
		return nil
	}
	job := &predictJob{p: p, fp: fp, feats: feats, out: out}
	job.wg.Add(workers - 1)
	for i := 1; i < workers; i++ {
		go func() {
			defer job.wg.Done()
			job.run()
		}()
	}
	job.run()
	job.wg.Wait()
	return nil
}

// predictJob is one PredictInto call's shared state: the workers claim
// chunks off next until the batch is exhausted.
type predictJob struct {
	p     *Predictor
	fp    *fastPath
	feats []Features
	out   []float64
	next  atomic.Int64 // next unclaimed chunk
	wg    sync.WaitGroup
}

func (j *predictJob) run() {
	sc := batchPool.Get().(*batchScratch)
	tasks := j.p.cfg.Tasks
	for {
		lo := int(j.next.Add(1)-1) * chunkRows
		if lo >= len(j.feats) {
			break
		}
		hi := min(lo+chunkRows, len(j.feats))
		j.p.predictChunk(j.fp, sc, j.feats[lo:hi], j.out[lo*tasks:hi*tasks])
	}
	batchPool.Put(sc)
}

// predictChunk is the whole tower→fuse→head pipeline for n ≤ chunkRows rows.
func (p *Predictor) predictChunk(fp *fastPath, sc *batchScratch, feats []Features, out []float64) {
	n := len(feats)
	w, cu, tasks := p.cfg.Window, p.cfg.ConvUnits, p.cfg.Tasks
	var iOut, pOut []float32
	if fp.iTower != nil {
		sc.xi = grow32(sc.xi, n*w)
		for k := range feats {
			row := sc.xi[k*w : (k+1)*w]
			for j, v := range feats[k].ISizes {
				row[j] = float32(v)
			}
		}
		sc.iOut = grow32(sc.iOut, n*cu)
		fp.iTower.Forward(n, sc.xi, sc.iOut)
		iOut = sc.iOut
	}
	if fp.pTower != nil {
		sc.xp = grow32(sc.xp, n*w)
		for k := range feats {
			row := sc.xp[k*w : (k+1)*w]
			for j, v := range feats[k].PSizes {
				row[j] = float32(v)
			}
		}
		sc.pOut = grow32(sc.pOut, n*cu)
		fp.pTower.Forward(n, sc.xp, sc.pOut)
		pOut = sc.pOut
	}
	sc.fused = grow32(sc.fused, n*p.fusedDim)
	for k := range feats {
		off := k * p.fusedDim
		if iOut != nil {
			copy(sc.fused[off:off+cu], iOut[k*cu:(k+1)*cu])
			off += cu
		}
		if pOut != nil {
			copy(sc.fused[off:off+cu], pOut[k*cu:(k+1)*cu])
			off += cu
		}
		if p.cfg.UseTemporal {
			sc.fused[off] = float32(feats[k].Temporal)
			off++
		}
		sc.fused[off] = float32(feats[k].Pict[0])
		sc.fused[off+1] = float32(feats[k].Pict[1])
		sc.fused[off+2] = float32(feats[k].Pict[2])
	}
	sc.conf = grow32(sc.conf, n*tasks)
	fp.head.Forward(n, sc.fused, sc.conf)
	for i, v := range sc.conf[:n*tasks] {
		out[i] = float64(v)
	}
}

var slabPool = sync.Pool{New: func() interface{} { return new(Slab) }}

// GetSlab returns a recycled feature slab for round-scoped Features
// retention (online learning keeps the decision features until feedback).
func GetSlab() *Slab { return slabPool.Get().(*Slab) }

// PutSlab resets and recycles a slab once its round has retired.
func PutSlab(s *Slab) {
	s.Reset()
	slabPool.Put(s)
}
