package main

import (
	"fmt"
	"sync"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/dataset"
	"packetgame/internal/infer"
	"packetgame/internal/predictor"
)

// The load generator. Everything the system under test receives is made
// here, from the seed alone, outside the timed region: a mixed-codec camera
// fleet, rounds pre-generated in blocks, the ground truth that goes with
// them, and a digest of the generated input.

var (
	fleetCodecs = []codec.Codec{codec.H264, codec.H265, codec.VP9}
	fleetGOPs   = []int{12, 18, 24}
)

// newCamera builds camera i of a fleet: codec, GOP length, GOP phase, scene
// richness and activity all vary with i so packet sizes, keyframe timing and
// event rates differ across the fleet.
func newCamera(i int, seed int64, fps int) *codec.Stream {
	gop := fleetGOPs[(i/len(fleetCodecs))%len(fleetGOPs)]
	return codec.NewStream(
		codec.SceneConfig{
			FPS:          fps,
			BaseActivity: 0.35 + 0.1*float64(i%4),
			PersonRate:   0.3 + 0.1*float64(i%3),
			Richness:     0.35 + 0.1*float64(i%5),
		},
		codec.EncoderConfig{
			StreamID: i,
			FPS:      fps,
			Codec:    fleetCodecs[i%len(fleetCodecs)],
			GOPSize:  gop,
			GOPPhase: (i * 7) % gop,
		},
		seed+int64(i)*7919)
}

// parallelRange runs fn over [0,n) split into contiguous chunks, one per
// generator thread. Cameras are independent, so chunking by camera id keeps
// every camera's packet sequence — and therefore the digest — identical for
// any thread count.
func parallelRange(n, threads int, fn func(lo, hi int)) {
	if threads < 1 {
		threads = 1
	}
	if threads > n {
		threads = n
	}
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		lo, hi := n*t/threads, n*(t+1)/threads
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	wg.Wait()
}

// genRound is one generated round: the active cameras (ascending ids), their
// packets, and the ground-truth scene behind each packet.
type genRound struct {
	ids   []int32
	pkts  []*codec.Packet
	truth []codec.Scene
	// The active ids are the intervals [a0,b0) then [a1,b1), so a stream's
	// position in ids is arithmetic, not a search.
	a0, b0, a1, b1 int32
}

// pos returns stream id's position in the round, or -1 when it is idle.
func (gr *genRound) pos(id int32) int {
	if id >= gr.a0 && id < gr.b0 {
		return int(id - gr.a0)
	}
	if id >= gr.a1 && id < gr.b1 {
		return int(gr.b0 - gr.a0 + id - gr.a1)
	}
	return -1
}

// block is a run of consecutive pre-generated rounds.
type block struct {
	base   int // global index of rounds[0]
	rounds []genRound
}

func (b *block) packets() int64 {
	var n int64
	for k := range b.rounds {
		n += int64(len(b.rounds[k].ids))
	}
	return n
}

// generator produces a workload's rounds. With window == m every camera is
// active every round; otherwise a window of `window` consecutive ids (mod m)
// is active and advances by `step` ids per round, so membership churns by
// step/window per round and every camera is visited in turn.
type generator struct {
	m, window, step int
	threads         int
	fps             int
	fleet           []*codec.Stream
	allIDs          []int32 // 0..m-1, shared by every round of an always-active fleet

	round      int    // next global round
	digest     uint64 // FNV-1a over every generated packet's metadata
	markAt     int    // note the digest after this many rounds ...
	markDigest uint64 // ... here, for a shorter run of the seed to match
	packets    int64
	genNanos   int64
}

func newGenerator(spec workloadSpec, seed int64, threads, markAt int) *generator {
	fps := spec.fps
	if fps == 0 {
		fps = 25
	}
	g := &generator{
		m: spec.streams, window: spec.active(), step: spec.step(),
		threads: threads, fps: fps, digest: fnvOffset64, markAt: markAt,
		fleet: make([]*codec.Stream, spec.streams),
	}
	parallelRange(g.m, threads, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g.fleet[i] = newCamera(i, seed, fps)
		}
	})
	if g.window == g.m {
		g.allIDs = make([]int32, g.m)
		for i := range g.allIDs {
			g.allIDs[i] = int32(i)
		}
	}
	return g
}

// spans returns round r's active id intervals, ascending: one interval, or
// two when the window wraps past m.
func (g *generator) spans(r int) (a0, b0, a1, b1 int) {
	if g.window == g.m {
		return 0, g.m, 0, 0
	}
	start := (r * g.step) % g.m
	if end := start + g.window; end > g.m {
		return 0, end - g.m, start, g.m
	}
	return start, start + g.window, 0, 0
}

// next generates the following n rounds. It is never called inside a timed
// region; its own cost is reported as source.gen_ms_per_round.
func (g *generator) next(n int) *block {
	t0 := time.Now()
	b := &block{base: g.round, rounds: make([]genRound, n)}
	for k := range b.rounds {
		gr := &b.rounds[k]
		gr.pkts = make([]*codec.Packet, g.window)
		gr.truth = make([]codec.Scene, g.window)
		a0, b0, a1, b1 := g.spans(g.round + k)
		gr.a0, gr.b0, gr.a1, gr.b1 = int32(a0), int32(b0), int32(a1), int32(b1)
		if g.allIDs != nil {
			gr.ids = g.allIDs
			continue
		}
		gr.ids = make([]int32, 0, g.window)
		for i := a0; i < b0; i++ {
			gr.ids = append(gr.ids, int32(i))
		}
		for i := a1; i < b1; i++ {
			gr.ids = append(gr.ids, int32(i))
		}
	}
	parallelRange(g.m, g.threads, func(lo, hi int) {
		for k := range b.rounds {
			gr := &b.rounds[k]
			a0, b0, a1, b1 := g.spans(g.round + k)
			fill := func(a, e, pos int) {
				if a < lo {
					pos += lo - a
					a = lo
				}
				if e > hi {
					e = hi
				}
				for i := a; i < e; i++ {
					gr.pkts[pos] = g.fleet[i].Next()
					gr.truth[pos] = g.fleet[i].LastScene
					pos++
				}
			}
			fill(a0, b0, 0)
			fill(a1, b1, b0-a0)
		}
	})
	for k := range b.rounds {
		gr := &b.rounds[k]
		g.digest = fnvWord(g.digest, uint64(g.round+k))
		for j, p := range gr.pkts {
			g.digest = fnvWord(g.digest, uint64(gr.ids[j])<<32|uint64(uint32(p.Seq)))
			g.digest = fnvWord(g.digest, uint64(p.Size)<<8|uint64(p.Type))
		}
		g.packets += int64(len(gr.pkts))
		if g.round+k+1 == g.markAt {
			g.markDigest = g.digest
		}
	}
	g.round += n
	g.genNanos += time.Since(t0).Nanoseconds()
	return b
}

// genMsPerRound is the generator's own mean cost, never part of an
// end-to-end number.
func (g *generator) genMsPerRound() float64 {
	return ratio(float64(g.genNanos)/1e6, float64(g.round))
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvWord folds one 64-bit word into an FNV-1a hash, byte by byte.
func fnvWord(h, v uint64) uint64 {
	for s := uint(0); s < 64; s += 8 {
		h = (h ^ (v >> s & 0xFF)) * fnvPrime64
	}
	return h
}

// foldSelection extends a decision hash with one round's selection, in
// selection order: two runs decided alike iff their hashes match.
func foldSelection(h uint64, round int, sel []int32) uint64 {
	h = fnvWord(h, uint64(round))
	for _, i := range sel {
		h = fnvWord(h, uint64(i))
	}
	return h
}

// trainPredictor builds the contextual predictor the way the paper deploys
// it: trained offline on a held-out camera fleet (same camera mix, disjoint
// seeds), then frozen. A short training run is enough for the size views to
// carry signal, which keeps filter_rate and recall meaningful; the cost is
// part of setup_s. The model is configuration, not load: its training seed
// is fixed, so every --seed gates with the same weights.
func trainPredictor(fps int) (*predictor.Predictor, error) {
	const cams, rounds, seed = 192, 400, 20230823
	fleet := make([]*codec.Stream, cams)
	for i := range fleet {
		fleet[i] = newCamera(i, seed, fps)
	}
	samples, err := dataset.Collect(fleet, []infer.Task{infer.PersonCounting{}}, 5, rounds)
	if err != nil {
		return nil, fmt.Errorf("collecting training samples: %w", err)
	}
	p, err := predictor.New(predictor.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if _, err := p.Train(dataset.Balance(samples, 0, seed), predictor.TrainOptions{Epochs: 6, BatchSize: 256, LR: 0.003, Seed: seed}); err != nil {
		return nil, fmt.Errorf("training predictor: %w", err)
	}
	return p, nil
}
