package predictor

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"packetgame/internal/codec"
)

// packetSeq builds a GOP-shaped packet sequence for window tests.
func packetSeq(n int) []*codec.Packet {
	pkts := make([]*codec.Packet, n)
	for i := range pkts {
		p := &codec.Packet{Type: codec.PictureP, Size: 1000 + i*37}
		if i%25 == 0 {
			p.Type = codec.PictureI
			p.Size *= 8
		}
		pkts[i] = p
	}
	return pkts
}

// randFeats builds a batch of random features matching cfg's enabled views.
func randFeats(cfg Config, n int, rng *rand.Rand) []Features {
	cfg = cfg.withDefaults()
	out := make([]Features, n)
	for i := range out {
		f := Features{Temporal: rng.Float64()}
		f.ISizes = make([]float64, cfg.Window)
		f.PSizes = make([]float64, cfg.Window)
		for j := 0; j < cfg.Window; j++ {
			f.ISizes[j] = rng.Float64()
			f.PSizes[j] = rng.Float64()
		}
		f.Pict[rng.Intn(3)] = 1
		out[i] = f
	}
	return out
}

// maxErrVsBatch compares PredictInto-style output against PredictBatch.
func maxErrVsBatch(got []float64, want [][]float64, tasks int) float64 {
	var worst float64
	for i := range want {
		for j := 0; j < tasks; j++ {
			if d := math.Abs(got[i*tasks+j] - want[i][j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// TestPredictIntoMatchesPredictBatch is the fast-path equivalence property
// test: across window lengths, view ablations, and multi-task heads, the
// compiled float32 batch must match the float64 reference within float32
// rounding (sigmoid outputs, so absolute error is the right metric).
func TestPredictIntoMatchesPredictBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cases := []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"w1", Config{Window: 1, UseIView: true, UsePView: true, UseTemporal: true}},
		{"w2", Config{Window: 2, UseIView: true, UsePView: true}},
		{"w25", Config{Window: 25, UseIView: true, UsePView: true, UseTemporal: true}},
		{"iview-only", Config{UseIView: true}},
		{"pview-temporal", Config{UsePView: true, UseTemporal: true}},
		{"temporal-only", Config{UseTemporal: true}},
		{"multi-task", Config{UseIView: true, UsePView: true, UseTemporal: true, Tasks: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Seed = rng.Int63()
			p, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			tasks := p.Config().Tasks
			for _, n := range []int{1, 7, 128} {
				feats := randFeats(tc.cfg, n, rng)
				want := p.PredictBatch(feats)
				got := make([]float64, n*tasks)
				if err := p.PredictInto(feats, got); err != nil {
					t.Fatalf("PredictInto: %v", err)
				}
				if worst := maxErrVsBatch(got, want, tasks); worst > 1e-6 {
					t.Fatalf("n=%d: fast path max abs err %g vs PredictBatch", n, worst)
				}
			}
		})
	}
}

// TestPredictIntoZeroAlloc: the steady-state batched forward allocates
// nothing on the serial path (pools are warm after the first call), and a
// fan-out-sized batch allocates only its job record and one closure per
// extra goroutine — never scratch.
func TestPredictIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are meaningless")
	}
	rng := rand.New(rand.NewSource(23))
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	const procs = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	for _, tc := range []struct {
		n       int
		ceiling float64
	}{
		{32, 0},
		{fanOutRows - 1, 0},
		{4 * fanOutRows, 2 * procs}, // job + (procs-1) closures, with slack for a new g
	} {
		feats := randFeats(p.Config(), tc.n, rng)
		out := make([]float64, tc.n)
		for i := 0; i < 3; i++ { // warm every P's scratch pool
			if err := p.PredictInto(feats, out); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(50, func() {
			if err := p.PredictInto(feats, out); err != nil {
				t.Fatal(err)
			}
		})
		runtime.ReadMemStats(&after)
		if allocs > tc.ceiling {
			t.Fatalf("n=%d: PredictInto allocates %v times per run, ceiling %v", tc.n, allocs, tc.ceiling)
		}
		// 51 runs; a scratch buffer re-made on any of them would be tens of KB.
		if perRun := float64(after.TotalAlloc-before.TotalAlloc) / 51; tc.ceiling > 0 && perRun > 1024 {
			t.Fatalf("n=%d: PredictInto allocates %.0f bytes per run, ceiling 1024", tc.n, perRun)
		}
	}
}

// predictSerial is the oracle for the fan-out tests: the same chunks, one
// goroutine, in order.
func predictSerial(t *testing.T, p *Predictor, feats []Features) []float64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	out := make([]float64, len(feats)*p.Config().Tasks)
	if err := p.PredictInto(feats, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPredictIntoFanOutMatchesSerial: the confidences are the same bits
// whether the batch ran on one goroutine or was shared out over several, and
// whether a row was scored alone or inside a batch — for batches ending
// before, on and after a chunk boundary and the fan-out threshold.
func TestPredictIntoFanOutMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, cfg := range []Config{
		DefaultConfig(),
		{UseIView: true, UseTemporal: true, Tasks: 3, ConvUnits: 12, DenseUnits: 37},
	} {
		cfg.Seed = rng.Int63()
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tasks := p.Config().Tasks
		for _, n := range []int{1, chunkRows - 1, chunkRows, chunkRows + 1, fanOutRows - 1, fanOutRows, fanOutRows + 1, 1025} {
			feats := randFeats(cfg, n, rng)
			want := predictSerial(t, p, feats)
			for _, procs := range []int{2, 3, 8} {
				prev := runtime.GOMAXPROCS(procs)
				got := make([]float64, n*tasks)
				err := p.PredictInto(feats, got)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d procs=%d: output %d fan-out %v != serial %v", n, procs, i, got[i], want[i])
					}
				}
			}
			single := make([]float64, tasks)
			for k := 0; k < n; k += 1 + n/50 {
				if err := p.PredictInto(feats[k:k+1], single); err != nil {
					t.Fatal(err)
				}
				for j, v := range single {
					if math.Float64bits(v) != math.Float64bits(want[k*tasks+j]) {
						t.Fatalf("n=%d row %d task %d: alone %v != in batch %v", n, k, j, v, want[k*tasks+j])
					}
				}
			}
		}
	}
}

// TestPredictIntoConcurrentCallers: several goroutines share one predictor,
// each fanning its own batch out; every caller gets its own rows' bits (run
// under -race this also checks the chunk hand-out and the scratch pools),
// and no worker goroutine outlives the calls.
func TestPredictIntoConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const callers, n = 6, 2*fanOutRows + 5
	feats := make([][]Features, callers)
	want := make([][]float64, callers)
	for c := range feats {
		feats[c] = randFeats(p.Config(), n, rng)
		want[c] = predictSerial(t, p, feats[c])
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got := make([]float64, n)
			for iter := 0; iter < 8; iter++ {
				if err := p.PredictInto(feats[c], got); err != nil {
					t.Error(err)
					return
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[c][i]) {
						t.Errorf("caller %d iter %d: output %d = %v, want %v", c, iter, i, got[i], want[c][i])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	// wg.Done runs just before a goroutine's last instructions, so give the
	// scheduler a moment to retire them before counting.
	for try := 0; runtime.NumGoroutine() > base && try < 100; try++ {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines before, %d after: PredictInto left workers behind", base, got)
	}
}

// TestWindowZeroAlloc: Push and Features are allocation-free after
// construction — the ring's double-write keeps the views contiguous.
func TestWindowZeroAlloc(t *testing.T) {
	w := NewWindow(5)
	pkts := packetSeq(64)
	for _, p := range pkts {
		w.Push(p)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		w.Push(pkts[i%len(pkts)])
		f := w.Features(0.5)
		if len(f.ISizes) != 5 || len(f.PSizes) != 5 {
			t.Fatal("bad view length")
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Push+Features allocates %v times per run, want 0", allocs)
	}
}

// TestFastPathInvalidatedByTraining: weight changes via Train, Trainer.Step,
// and Load must drop the compiled snapshot, so the fast path tracks the
// current weights instead of serving stale compilations.
func TestFastPathInvalidatedByTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	cfg := DefaultConfig()
	cfg.Seed = 9
	newP := func() *Predictor {
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	check := func(name string, p *Predictor, mutate func(p *Predictor)) {
		feats := randFeats(cfg, 16, rng)
		out := make([]float64, 16)
		if err := p.PredictInto(feats, out); err != nil { // compile against old weights
			t.Fatalf("%s: %v", name, err)
		}
		mutate(p)
		want := p.PredictBatch(feats)
		if err := p.PredictInto(feats, out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if worst := maxErrVsBatch(out, want, 1); worst > 1e-5 {
			t.Fatalf("%s: fast path stale after weight change (max err %g)", name, worst)
		}
	}
	samples := synthSamples(64, cfg.Window, 1, 31)
	check("Train", newP(), func(p *Predictor) {
		if _, err := p.Train(samples, TrainOptions{Epochs: 2, Seed: 5}); err != nil {
			t.Fatal(err)
		}
	})
	check("Trainer.Step", newP(), func(p *Predictor) {
		if _, err := NewTrainer(p, 0.01).Step(samples[:16]); err != nil {
			t.Fatal(err)
		}
	})
	check("Load", newP(), func(p *Predictor) {
		donor := newP()
		if _, err := donor.Train(samples, TrainOptions{Epochs: 2, Seed: 6}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := donor.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if err := p.Load(&buf); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPredictIntoValidation: malformed windows and short outputs error
// instead of corrupting the packed batch.
func TestPredictIntoValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	feats := randFeats(p.Config(), 4, rng)
	if err := p.PredictInto(feats, make([]float64, 3)); err == nil {
		t.Fatal("expected error for short out buffer")
	}
	bad := append([]Features(nil), feats...)
	bad[2].ISizes = bad[2].ISizes[:3]
	if err := p.PredictInto(bad, make([]float64, 4)); err == nil {
		t.Fatal("expected error for wrong I-window length")
	}
	bad = append([]Features(nil), feats...)
	bad[1].PSizes = nil
	if err := p.PredictInto(bad, make([]float64, 4)); err == nil {
		t.Fatal("expected error for missing P-window")
	}
	if err := p.PredictInto(nil, nil); err != nil {
		t.Fatalf("empty batch should be a no-op, got %v", err)
	}
}

// TestSlabCloneInto: slab clones are detached from their sources and from
// each other, survive slab growth, and Reset recycles storage.
func TestSlabCloneInto(t *testing.T) {
	s := &Slab{}
	src := Features{ISizes: []float64{1, 2, 3}, PSizes: []float64{4, 5, 6}, Temporal: 0.5}
	clones := make([]Features, 0, 2000)
	for i := 0; i < 2000; i++ { // force multiple chunks
		clones = append(clones, s.CloneInto(src))
	}
	src.ISizes[0] = 99 // mutating the source must not reach the clones
	for i, c := range clones {
		if c.ISizes[0] != 1 || c.PSizes[2] != 6 || c.Temporal != 0.5 {
			t.Fatalf("clone %d corrupted: %+v", i, c)
		}
	}
	// Alloc'd slices are capacity-capped: appending must not clobber later
	// slab contents.
	a := s.Alloc(2)
	b := s.Alloc(2)
	_ = append(a, 7)
	if b[0] == 7 {
		t.Fatal("append to a capacity-capped slab slice clobbered its neighbor")
	}

	s.Reset()
	warm := testing.AllocsPerRun(10, func() {
		s.CloneInto(src)
		s.Reset()
	})
	if warm != 0 {
		t.Fatalf("recycled slab allocates %v times per clone round, want 0", warm)
	}
}

// BenchmarkPredictInto is the full-churn forward at replay-pgsp's and
// local-dense's batch sizes (serial) and at the fan-out threshold; run the
// last with -cpu 1,2 to read the serial cost and the fan-out's share.
func BenchmarkPredictInto(b *testing.B) {
	rng := rand.New(rand.NewSource(26))
	p, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{512, 1024, fanOutRows} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			feats := randFeats(p.Config(), n, rng)
			out := make([]float64, n)
			if err := p.PredictInto(feats, out); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.PredictInto(feats, out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/row")
		})
	}
}
