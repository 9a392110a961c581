package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/infer"
	"packetgame/internal/pipeline"
	"packetgame/internal/predictor"
	"packetgame/internal/stats"
)

// scaleAllocCeiling bounds the steady-state heap allocations per gating
// round in the churn sweep. The incremental hot loop itself is designed to
// allocate nothing once scratch and free lists are warm; the ceiling leaves
// headroom for runtime background noise (finalizer and timer bookkeeping)
// that MemStats deltas pick up in a live process.
const scaleAllocCeiling = 32

// The m=100k acceptance ceilings. A 1%-churn round is mostly fixed cost
// (sweep, cache probes, ranked select) and must fit one 25 fps round clock;
// a 100%-churn round is the forward pass, bounded per changed stream with
// room for a host that runs the portable kernels on one core (~10 µs).
const (
	scaleLowChurnCeilingNs  = 40e6
	scaleFullChurnCeilingNs = 15e3
)

// scaleExploreCeilingNs bounds the m=100k 1%-churn round in the paper's own
// configuration — temporal estimator and exploration bonus on. The bonus
// moves every active stream's value every round, so the ranked selector's
// dirty set is the whole fleet and the round adds a full ordering-kernel
// sort and merge (~40 ns per stream) and the estimator reads to the cached
// round above; half the round clock leaves the other half for decoding.
const scaleExploreCeilingNs = 20e6

// The end-to-end ceilings at m=100k and 1% activity: the whole engine round
// within 1% of the round clock, and allocating nothing of its own — the
// ~19 B a round the cell reads is each Run call's pool and channels spread
// over its 120 rounds, and twice that leaves no room for one small object
// per round, let alone one per active stream or selected packet.
const (
	scaleE2ECeilingNs         = 400e3
	scaleE2EAllocCeilingBytes = 38
)

// Scale benchmarks the churn-scaled Decide path at fleet sizes up to
// m=100k: every stream delivers a packet every round, but only a `churn`
// fraction of the fleet varies its packet sizes — the rest repeat their
// metadata exactly, so their feature windows freeze and the gate serves
// them from the score cache instead of re-running the predictor. Per-round
// cost should therefore track churn, not m. At full scale the experiment
// asserts the headline acceptance numbers at m=100k in absolute terms — a
// 1%-churn round fits the 40 ms round clock and a 100%-churn round costs at
// most scaleFullChurnCeilingNs per changed stream — plus the steady-state
// allocation ceiling in every cell, and writes BENCH_scale.json. (Absolute, not the 1%-vs-100% ratio: a faster
// forward shrinks only the 100% cell, so the ratio falls exactly when the
// code improves.)
func Scale(o Options) error {
	o = o.withDefaults()
	var report scaleReport

	o.printf("=== Churn-scaled Decide: content churn sweep (all m streams active) ===\n")
	o.printf("%-8s %-7s %12s %14s %12s %10s\n", "m", "churn", "ns/round", "rounds/s", "mallocs/rd", "cache-hit")
	ms := []int{o.scaled(1000, 64), o.scaled(10000, 128), o.scaled(100000, 256)}
	churns := []float64{0.01, 0.10, 1.00}
	cells, err := bestScaleCells(ms, churns, o.Seed)
	if err != nil {
		return err
	}
	explore := cells[len(cells)-1] // the largest fleet at 1% churn, paper configuration
	for mi, m := range ms {
		nsByChurn := map[float64]float64{}
		for ci, churn := range churns {
			cell := cells[mi*len(churns)+ci]
			nsByChurn[churn] = cell.NsPerRound
			report.Cells = append(report.Cells, cell)
			o.printf("%-8d %-7s %12.0f %14.1f %12.1f %9.1f%%\n",
				m, fmt.Sprintf("%.0f%%", churn*100), cell.NsPerRound, 1e9/cell.NsPerRound, cell.MallocsPerRound, cell.CacheHitRate*100)
			if cell.MallocsPerRound > scaleAllocCeiling {
				return fmt.Errorf("scale: m=%d churn=%.0f%% allocates %.1f times/round, ceiling %d",
					m, churn*100, cell.MallocsPerRound, scaleAllocCeiling)
			}
		}
		ch := scaleChurnCost{M: m, LowChurnNsPerRound: nsByChurn[0.01], FullChurnNsPerStream: nsByChurn[1.00] / float64(m)}
		if m == explore.M {
			// Every stream is dirty in the selector every round here, whatever
			// the content churn: this is the cell the cells above, measured
			// with the estimator and the bonus off, say nothing about.
			ch.ExploreNsPerRound = explore.NsPerRound
			report.Cells = append(report.Cells, explore)
			o.printf("%-8d %-7s %12.0f %14.1f %12.1f %9.1f%%  (temporal + exploration on)\n",
				m, "1%", explore.NsPerRound, 1e9/explore.NsPerRound, explore.MallocsPerRound, explore.CacheHitRate*100)
			if explore.MallocsPerRound > scaleAllocCeiling {
				return fmt.Errorf("scale: m=%d exploring cell allocates %.1f times/round, ceiling %d",
					m, explore.MallocsPerRound, scaleAllocCeiling)
			}
		}
		report.ChurnCosts = append(report.ChurnCosts, ch)
		o.printf("%-8d 1%% churn: %.2f ms/round; 100%% churn: %.0f ns per changed stream\n",
			m, ch.LowChurnNsPerRound/1e6, ch.FullChurnNsPerStream)
		if o.Scale >= 1 && m >= 100000 {
			if ch.ExploreNsPerRound > scaleExploreCeilingNs {
				return fmt.Errorf("scale: m=%d 1%%-churn round with exploration on takes %.1f ms, ceiling %.0f ms",
					m, ch.ExploreNsPerRound/1e6, scaleExploreCeilingNs/1e6)
			}
			if ch.LowChurnNsPerRound > scaleLowChurnCeilingNs {
				return fmt.Errorf("scale: m=%d 1%%-churn round takes %.1f ms, over the %.0f ms round clock",
					m, ch.LowChurnNsPerRound/1e6, scaleLowChurnCeilingNs/1e6)
			}
			if ch.FullChurnNsPerStream > scaleFullChurnCeilingNs {
				return fmt.Errorf("scale: m=%d 100%%-churn round costs %.0f ns per changed stream, ceiling %.0f",
					m, ch.FullChurnNsPerStream, scaleFullChurnCeilingNs)
			}
		}
	}

	o.printf("\n=== Idle-fleet activity sweep (only an activity slice delivers packets) ===\n")
	o.printf("%-8s %-9s %12s %14s %12s %12s\n", "m", "activity", "ns/round", "rounds/s", "mallocs/rd", "ns/active")
	for _, m := range []int{o.scaled(1000, 64), o.scaled(10000, 128), o.scaled(100000, 256)} {
		nsByAct := map[float64]float64{}
		for _, activity := range []float64{0.01, 0.10, 1.00} {
			cell, err := timeIdleCell(m, activity, o.Seed)
			if err != nil {
				return err
			}
			nsByAct[activity] = cell.NsPerRound
			report.Idle = append(report.Idle, cell)
			active := float64(int(float64(m) * activity))
			if active < 1 {
				active = 1
			}
			o.printf("%-8d %-9s %12.0f %14.1f %12.1f %12.1f\n",
				m, fmt.Sprintf("%.0f%%", activity*100), cell.NsPerRound, 1e9/cell.NsPerRound,
				cell.MallocsPerRound, cell.NsPerRound/active)
			if cell.MallocsPerRound > scaleAllocCeiling {
				return fmt.Errorf("scale: m=%d activity=%.0f%% allocates %.1f times/round, ceiling %d",
					m, activity*100, cell.MallocsPerRound, scaleAllocCeiling)
			}
		}
		// The O(m) residue of a sparse round: a purely O(active) gate would
		// make a 1%-activity round ~100x cheaper than a full one; the gap
		// from that ideal is the per-round fixed cost that still scales
		// with the configured fleet size.
		o.printf("%-8d 1%% vs 100%% activity: %.1fx cheaper per round (ideal 100x)\n",
			m, nsByAct[1.00]/nsByAct[0.01])
	}

	o.printf("\n=== End-to-end pipeline round (1%% activity) ===\n")
	o.printf("%-8s %12s %14s %14s %12s\n", "m", "ns/round", "alloc B/rd", "mallocs/rd", "decoded")
	for _, m := range []int{o.scaled(10000, 128), o.scaled(100000, 256)} {
		cell, err := timeE2E(m, 0.01, o.Seed)
		if err != nil {
			return err
		}
		report.E2E = append(report.E2E, cell)
		o.printf("%-8d %12.0f %14.0f %14.1f %12d\n",
			m, cell.NsPerRound, cell.AllocBytesPerRound, cell.MallocsPerRound, cell.Decoded)
		if o.Scale >= 1 && m >= 100000 {
			if cell.NsPerRound > scaleE2ECeilingNs {
				return fmt.Errorf("scale e2e: m=%d round takes %.0f µs through the engine, ceiling %.0f",
					m, cell.NsPerRound/1e3, scaleE2ECeilingNs/1e3)
			}
			if cell.AllocBytesPerRound > scaleE2EAllocCeilingBytes {
				return fmt.Errorf("scale e2e: m=%d round allocates %.0f bytes, ceiling %d",
					m, cell.AllocBytesPerRound, scaleE2EAllocCeilingBytes)
			}
		}
	}

	if o.Scale >= 1 {
		report.Meta = benchMeta("scale")
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile("BENCH_scale.json", append(buf, '\n'), 0o644); err != nil {
			return err
		}
		o.printf("\nwrote BENCH_scale.json\n")
	} else {
		o.printf("\n(scale %.2f < 1: BENCH_scale.json not written)\n", o.Scale)
	}
	return nil
}

type scaleCell struct {
	M               int     `json:"m"`
	Churn           float64 `json:"churn,omitempty"`
	Activity        float64 `json:"activity,omitempty"`
	Explore         bool    `json:"explore,omitempty"` // temporal estimator + exploration bonus on
	NsPerRound      float64 `json:"ns_per_round"`
	RoundsPerSec    float64 `json:"rounds_per_sec"`
	MallocsPerRound float64 `json:"mallocs_per_round"`
	CacheHitRate    float64 `json:"cache_hit_rate"`
}

// scaleChurnCost is the churn sweep's headline pair for one fleet size, in
// absolute time (lower is better): what a mostly-cached round costs, and
// what each stream whose window moved costs when all of them did.
type scaleChurnCost struct {
	M                    int     `json:"m"`
	LowChurnNsPerRound   float64 `json:"ns_per_round_1pct_churn"`
	FullChurnNsPerStream float64 `json:"ns_per_changed_stream_100pct_churn"`
	// ExploreNsPerRound is the 1%-churn round with the temporal estimator
	// and the exploration bonus on; measured at the largest fleet only.
	ExploreNsPerRound float64 `json:"ns_per_round_1pct_churn_explore,omitempty"`
}

type scaleE2ECell struct {
	M                  int     `json:"m"`
	Activity           float64 `json:"activity"`
	NsPerRound         float64 `json:"ns_per_round"`
	AllocBytesPerRound float64 `json:"alloc_bytes_per_round"`
	MallocsPerRound    float64 `json:"mallocs_per_round"`
	Decoded            int64   `json:"decoded"`
}

type scaleReport struct {
	Meta       BenchMeta        `json:"meta"`
	Cells      []scaleCell      `json:"cells"`
	Idle       []scaleCell      `json:"idle_cells"`
	ChurnCosts []scaleChurnCost `json:"churn_costs"`
	E2E        []scaleE2ECell   `json:"e2e_cells"`
}

// bestScaleCells measures every (m, churn) cell of the sweep, m-major, and
// after them one more — the largest fleet at the lowest churn with the
// temporal estimator and exploration on — five times over, each attempt on a
// fresh gate, and keeps each cell's fastest attempt. On the reference host about one attempt in three lands in a
// spell that runs 15–50% slow, and a spell outlasts a small cell's five
// attempts if they run back to back, so the passes go round the whole sweep.
// Noise only ever adds time: the minimum is the reading that repeats (to
// ±7% across processes, which is what lets benchdiff hold it to 15%).
func bestScaleCells(ms []int, churns []float64, seed int64) ([]scaleCell, error) {
	best := make([]scaleCell, len(ms)*len(churns)+1)
	for pass := 0; pass < 5; pass++ {
		keep := func(k int, cell scaleCell) {
			if pass == 0 || cell.NsPerRound < best[k].NsPerRound {
				best[k] = cell
			}
		}
		for mi, m := range ms {
			for ci, churn := range churns {
				cell, err := timeScaleCell(m, churn, false, seed)
				if err != nil {
					return nil, err
				}
				keep(mi*len(churns)+ci, cell)
			}
		}
		cell, err := timeScaleCell(ms[len(ms)-1], churns[0], true, seed)
		if err != nil {
			return nil, err
		}
		keep(len(best)-1, cell)
	}
	return best, nil
}

// timeScaleCell measures one (m, churn) cell: median wall-clock nanoseconds
// and mean heap mallocs per Decide+Feedback round at steady state. Without
// explore the gate is the contextual-only configuration (no temporal
// estimator, no exploration bonus, flat costs) so the only per-round signal
// is the feature window — exactly the state the score cache keys on; churned
// streams draw a fresh size every round, the rest repeat theirs verbatim.
// With explore the estimator and the bonus are on, as in the paper: the
// score cache hits just the same, but every stream's confidence moves every
// round, so the selection re-ranks the whole fleet.
func timeScaleCell(m int, churn float64, explore bool, seed int64) (scaleCell, error) {
	pcfg := predictor.Config{UseIView: true, UsePView: true, Seed: seed}
	p, err := predictor.New(pcfg)
	if err != nil {
		return scaleCell{}, err
	}
	no := false
	g, err := core.NewGate(core.Config{
		Streams: m, Budget: float64(m) / 25, Predictor: p,
		UseTemporal: explore, Explore: &explore, DependencyAware: &no,
	})
	if err != nil {
		return scaleCell{}, err
	}

	// Persistent packet structs: only the churned prefix mutates its size
	// between rounds, everything else repeats its metadata exactly.
	rnd := codec.Round{M: m}
	for i := 0; i < m; i++ {
		rnd.Append(int32(i), &codec.Packet{StreamID: i, Type: codec.PictureP, Size: 1000 + i%777, GOPSize: 25, GOPIndex: 1})
	}
	pkts := rnd.Pkts
	churned := int(float64(m) * churn)
	if churned < 1 {
		churned = 1
	}
	lcg := uint64(seed)*6364136223846793005 + 1442695040888963407
	mutate := func() {
		for i := 0; i < churned; i++ {
			lcg = lcg*6364136223846793005 + 1442695040888963407
			pkts[i].Size = 200 + int(lcg>>40)%60000
		}
	}

	necessary := make([]bool, m)
	var sel []int
	oneRound := func() error {
		mutate()
		var err error
		sel, err = g.DecideSparseAppend(&rnd, sel[:0])
		if err != nil {
			return err
		}
		return g.Feedback(sel, necessary[:len(sel)])
	}

	// Warmup: saturate the double-write feature rings (w+1 identical pushes
	// freeze an epoch) and the gate's scratch and free lists.
	for r := 0; r < p.Config().Window+4; r++ {
		if err := oneRound(); err != nil {
			return scaleCell{}, err
		}
	}
	hits0 := g.Incremental()

	// benchdiff holds these cells to 15% of their committed value, so the
	// estimator has to repeat: at least 20 rounds per cell, and the median
	// round rather than the mean, which one GC cycle or one descheduling
	// inside a short cell moves by tens of percent.
	rounds := 2000000 / m
	if rounds < 20 {
		rounds = 20
	}
	if rounds > 400 {
		rounds = 400
	}
	roundNs := make([]float64, rounds)
	runtime.GC()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	for r := range roundNs {
		t0 := time.Now()
		if err := oneRound(); err != nil {
			return scaleCell{}, err
		}
		roundNs[r] = float64(time.Since(t0).Nanoseconds())
	}
	runtime.ReadMemStats(&msAfter)
	hits1 := g.Incremental()

	cell := scaleCell{
		M:               m,
		Churn:           churn,
		Explore:         explore,
		NsPerRound:      stats.Quantile(roundNs, 0.5),
		MallocsPerRound: float64(msAfter.Mallocs-msBefore.Mallocs) / float64(rounds),
	}
	cell.RoundsPerSec = 1e9 / cell.NsPerRound
	if scored := hits1.Scored - hits0.Scored; scored > 0 {
		cell.CacheHitRate = float64(hits1.CacheHits-hits0.CacheHits) / float64(scored)
	}
	return cell, nil
}

// timeIdleCell measures one (m, activity) cell of the sparse-fleet sweep:
// each round only an `activity` slice of the fleet delivers a packet — the
// window of active streams rotates across the fleet so every stream takes
// turns — and the rest are idle (not in the round). The gate promises
// O(active) rounds; this cell makes the remaining O(m) residue measurable as
// ns/active versus the 100% row.
func timeIdleCell(m int, activity float64, seed int64) (scaleCell, error) {
	pcfg := predictor.Config{UseIView: true, UsePView: true, Seed: seed}
	p, err := predictor.New(pcfg)
	if err != nil {
		return scaleCell{}, err
	}
	active := int(float64(m) * activity)
	if active < 1 {
		active = 1
	}
	budget := float64(active) / 25
	if budget < 4 {
		budget = 4
	}
	no := false
	g, err := core.NewGate(core.Config{
		Streams: m, Budget: budget, Predictor: p,
		UseTemporal: false, Explore: &no, DependencyAware: &no,
	})
	if err != nil {
		return scaleCell{}, err
	}

	// One persistent packet per stream; each round lists the active window.
	pool := make([]*codec.Packet, m)
	for i := range pool {
		pool[i] = &codec.Packet{StreamID: i, Type: codec.PictureP, Size: 1000 + i%777, GOPSize: 25, GOPIndex: 1}
	}
	var rnd codec.Round
	start := 0
	lcg := uint64(seed)*6364136223846793005 + 1442695040888963407
	activate := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			lcg = lcg*6364136223846793005 + 1442695040888963407
			pool[i].Size = 200 + int(lcg>>40)%60000
			rnd.Append(int32(i), pool[i])
		}
	}

	necessary := make([]bool, m)
	var sel []int
	oneRound := func() error {
		// Active window [start, start+active) mod m, listed ascending:
		// the wrapped run first, then the tail run.
		rnd.Reset(m)
		if end := start + active - m; end > 0 {
			activate(0, end)
			activate(start, m)
		} else {
			activate(start, start+active)
		}
		start = (start + active) % m
		var err error
		sel, err = g.DecideSparseAppend(&rnd, sel[:0])
		if err != nil {
			return err
		}
		return g.Feedback(sel, necessary[:len(sel)])
	}

	for r := 0; r < p.Config().Window+4; r++ {
		if err := oneRound(); err != nil {
			return scaleCell{}, err
		}
	}

	rounds := 400000 / m
	if rounds < 4 {
		rounds = 4
	}
	if rounds > 200 {
		rounds = 200
	}
	runtime.GC()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		if err := oneRound(); err != nil {
			return scaleCell{}, err
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&msAfter)

	cell := scaleCell{
		M:               m,
		Activity:        activity,
		NsPerRound:      float64(elapsed.Nanoseconds()) / float64(rounds),
		MallocsPerRound: float64(msAfter.Mallocs-msBefore.Mallocs) / float64(rounds),
	}
	cell.RoundsPerSec = 1e9 / cell.NsPerRound
	return cell, nil
}

// e2eSource is the end-to-end cell's synthetic fleet at its sparse steady
// state: a fixed `active` slice of the fleet delivers a packet with frozen
// metadata every round (so the gate serves it from the score cache) and the
// rest are idle. The round is built once, so the source is O(1) per round and
// everything the cell observes is the engine's. Packets are never mutated,
// making the shared references safe while rounds overlap in the pipelined
// engine.
type e2eSource struct{ round codec.Round }

func newE2ESource(m int, activity float64, seed int64) *e2eSource {
	active := int(float64(m) * activity)
	if active < 1 {
		active = 1
	}
	// One valid payload shared by every packet: decode only reads the scene
	// header, and the scene payload is immutable once encoded.
	st := codec.NewStream(
		codec.SceneConfig{BaseActivity: 0.5, PersonRate: 0.4},
		codec.EncoderConfig{StreamID: 0, GOPSize: 12}, seed)
	var payload []byte
	for payload == nil {
		if p := st.Next(); p != nil {
			payload = p.Payload
		}
	}
	s := &e2eSource{}
	s.round.Reset(m)
	for i := 0; i < active; i++ {
		s.round.Append(int32(i), &codec.Packet{StreamID: i, Type: codec.PictureP, Seq: 1, PTS: 40,
			Size: 1000 + i%777, GOPSize: 25, GOPIndex: 1, Payload: payload})
	}
	return s
}

// NextRound implements pipeline.RoundSource; the engine pulls this source
// through NextRoundSparse.
func (s *e2eSource) NextRound() ([]*codec.Packet, error) {
	return nil, errors.New("scale: e2e source pulled dense")
}

// NextRoundSparse implements pipeline.SparseRoundSource.
func (s *e2eSource) NextRoundSparse() (*codec.Round, error) { return &s.round, nil }

// Truth implements pipeline.RoundSource: the perf cell carries no ground
// truth (accuracy is not what it measures).
func (s *e2eSource) Truth(i int) (codec.Scene, bool) { return codec.Scene{}, false }

// timeE2E runs the full pipelined engine — producer, gate, decode pool,
// settle — over the fixed-activity source and measures steady-state
// per-round wall time and heap traffic.
func timeE2E(m int, activity float64, seed int64) (scaleE2ECell, error) {
	pcfg := predictor.Config{UseIView: true, UsePView: true, Seed: seed}
	p, err := predictor.New(pcfg)
	if err != nil {
		return scaleE2ECell{}, err
	}
	active := int(float64(m) * activity)
	if active < 1 {
		active = 1
	}
	budget := float64(active) / 25
	if budget < 4 {
		budget = 4
	}
	no := false
	g, err := core.NewGate(core.Config{
		Streams: m, Budget: budget, Predictor: p,
		UseTemporal: false, Explore: &no, DependencyAware: &no,
	})
	if err != nil {
		return scaleE2ECell{}, err
	}
	eng, err := pipeline.New(pipeline.Config{
		Source:      newE2ESource(m, activity, seed),
		Gate:        g,
		Task:        infer.PersonCounting{},
		Workers:     4,
		MaxInFlight: 2,
		Pipelined:   true,
	})
	if err != nil {
		return scaleE2ECell{}, err
	}

	// Warmup: fill the feature windows and the engine's roundWork free list.
	if _, err := eng.Run(p.Config().Window + 12); err != nil {
		return scaleE2ECell{}, err
	}

	rounds := 120
	runtime.GC()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	rep, err := eng.Run(rounds)
	if err != nil {
		return scaleE2ECell{}, err
	}
	runtime.ReadMemStats(&msAfter)

	return scaleE2ECell{
		M:                  m,
		Activity:           activity,
		NsPerRound:         float64(rep.Elapsed.Nanoseconds()) / float64(rounds),
		AllocBytesPerRound: float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / float64(rounds),
		MallocsPerRound:    float64(msAfter.Mallocs-msBefore.Mallocs) / float64(rounds),
		Decoded:            rep.Decoded,
	}, nil
}
