package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// buildTower mirrors the predictor's conv tower: Conv1D+ReLU blocks followed
// by a global max pool.
func buildTower(w, units, layers int, rng *rand.Rand) *Sequential {
	var ls []Layer
	l := w
	in := 1
	for i := 0; i < layers; i++ {
		k := 3
		if k > l {
			k = l
		}
		ls = append(ls,
			NewConv1D(fmt.Sprintf("conv%d", i), in, units, k, rng),
			NewReLU(fmt.Sprintf("relu%d", i)))
		l = l - k + 1
		in = units
	}
	ls = append(ls, NewGlobalMaxPool1D("pool"))
	return NewSequential("tower", ls...)
}

// buildHead mirrors the predictor's fusion head.
func buildHead(in, hidden, tasks int, rng *rand.Rand) *Sequential {
	return NewSequential("head",
		NewDense("fc1", in, hidden, rng),
		NewReLU("relu"),
		NewDense("out", hidden, tasks, rng),
		NewSigmoid("sigmoid"),
	)
}

// refForward runs the float64 Layer stack on a float32 batch and returns the
// float64 outputs.
func refForward(s *Sequential, inShape []int, n int, x []float32) []float64 {
	shape := append([]int{n}, inShape...)
	t := NewTensor(shape...)
	for i, v := range x[:t.Len()] {
		t.Data[i] = float64(v)
	}
	return s.Forward(t).Data
}

func randInput(n int, rng *rand.Rand) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(rng.Float64())
	}
	return x
}

func maxAbsErr(got []float32, want []float64) float64 {
	var worst float64
	for i := range got {
		if d := math.Abs(float64(got[i]) - want[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestCompiledMatchesReference is the equivalence property test: across
// window sizes, tower depths, and multi-task heads, the compiled float32
// graph must match the float64 autodiff stack within float32 rounding.
func TestCompiledMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct {
		name    string
		build   func() *Sequential
		inShape []int
	}{
		{"tower-w5", func() *Sequential { return buildTower(5, 8, 2, rng) }, []int{1, 5}},
		{"tower-w1", func() *Sequential { return buildTower(1, 4, 1, rng) }, []int{1, 1}},
		{"tower-w25-deep", func() *Sequential { return buildTower(25, 16, 3, rng) }, []int{1, 25}},
		{"head-1task", func() *Sequential { return buildHead(20, 32, 1, rng) }, []int{20}},
		{"head-4task", func() *Sequential { return buildHead(68, 128, 4, rng) }, []int{68}},
		{"flatten-mix", func() *Sequential {
			return NewSequential("mix",
				NewConv1D("c", 2, 6, 3, rng),
				NewReLU("r"),
				NewFlatten("flat"),
				NewDense("d", 6*4, 3, rng),
				NewSigmoid("s"),
			)
		}, []int{2, 6}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build()
			c, err := Compile(s, tc.inShape)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			for _, n := range []int{1, 3, 64} {
				x := randInput(n*c.InDim(), rng)
				out := make([]float32, n*c.OutDim())
				c.Forward(n, x, out)
				want := refForward(s, tc.inShape, n, x)
				if err := maxAbsErr(out, want); err > 1e-5 {
					t.Fatalf("n=%d: compiled vs reference max abs err %g", n, err)
				}
			}
		})
	}
}

// TestCompiledBatchMatchesSingle: batching must be bit-exact — running n
// examples in one Forward equals n single-example Forwards, for batches that
// end before, on and after a chunk boundary and span many chunks, on the
// predictor's own shapes (so the SIMD blocks, the scalar conv and the pool
// are all crossed).
func TestCompiledBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name    string
		s       *Sequential
		inShape []int
	}{
		{"tower-8", buildTower(5, 8, 2, rng), []int{1, 5}},
		{"tower-32", buildTower(5, 32, 2, rng), []int{1, 5}},
		{"head", buildHead(68, 128, 3, rng), []int{68}},
	} {
		c, err := Compile(tc.s, tc.inShape)
		if err != nil {
			t.Fatalf("%s: Compile: %v", tc.name, err)
		}
		for _, n := range []int{1, 17, ChunkRows - 1, ChunkRows, ChunkRows + 1, 1025} {
			x := randInput(n*c.InDim(), rng)
			batch := make([]float32, n*c.OutDim())
			c.Forward(n, x, batch)
			single := make([]float32, c.OutDim())
			for i := 0; i < n; i++ {
				c.Forward(1, x[i*c.InDim():(i+1)*c.InDim()], single)
				for j, v := range single {
					if v != batch[i*c.OutDim()+j] {
						t.Fatalf("%s n=%d example %d output %d: batch %v != single %v",
							tc.name, n, i, j, batch[i*c.OutDim()+j], v)
					}
				}
			}
		}
	}
}

// TestCompileRecompileDeterministic: compiling the same frozen weights twice
// yields bit-identical outputs.
func TestCompileRecompileDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := buildHead(10, 16, 2, rng)
	c1, err := Compile(s, []int{10})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	c2, err := Compile(s, []int{10})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	x := randInput(4*c1.InDim(), rng)
	o1 := make([]float32, 4*c1.OutDim())
	o2 := make([]float32, 4*c2.OutDim())
	c1.Forward(4, x, o1)
	c2.Forward(4, x, o2)
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("output %d: %v != %v across recompiles", i, o1[i], o2[i])
		}
	}
}

// TestCompileRejectsUnsupported: unfused activations and unknown layers must
// fail compilation rather than silently mis-run.
func TestCompileRejectsUnsupported(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Compile(NewSequential("bad", NewReLU("r"), NewDense("d", 4, 2, rng)), []int{4}); err == nil {
		t.Fatal("expected error for graph starting with an unfused activation")
	}
	if _, err := Compile(NewSequential("bad2",
		NewDense("d", 4, 2, rng), NewReLU("r1"), NewReLU("r2")), []int{4}); err == nil {
		t.Fatal("expected error for double activation")
	}
	if _, err := Compile(nil, []int{4}); err == nil {
		t.Fatal("expected error for nil sequential")
	}
	if _, err := Compile(NewSequential("shape", NewDense("d", 4, 2, rng)), []int{5}); err == nil {
		t.Fatal("expected error for shape mismatch")
	}
	if _, err := Compile(NewSequential("empty"), []int{4}); err == nil {
		t.Fatal("expected error for empty graph")
	}
}

// TestCompiledForwardZeroAlloc: the steady-state forward must not allocate,
// for one chunk or for a batch of many (the scratch is sized by the chunk and
// reused, not regrown per batch).
func TestCompiledForwardZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are meaningless")
	}
	rng := rand.New(rand.NewSource(3))
	s := buildTower(5, 32, 2, rng)
	c, err := Compile(s, []int{1, 5})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	for _, n := range []int{ChunkRows, 16*ChunkRows + 3} {
		x := randInput(n*c.InDim(), rng)
		out := make([]float32, n*c.OutDim())
		c.Forward(n, x, out) // warm the scratch pool
		allocs := testing.AllocsPerRun(50, func() {
			c.Forward(n, x, out)
		})
		if allocs != 0 {
			t.Fatalf("n=%d: compiled forward allocates %v times per run, want 0", n, allocs)
		}
	}
}

func benchGraphs(b *testing.B) (*Sequential, *Compiled) {
	rng := rand.New(rand.NewSource(5))
	s := buildTower(5, 32, 2, rng)
	c, err := Compile(s, []int{1, 5})
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	return s, c
}

func BenchmarkCompiledForward256(b *testing.B) {
	_, c := benchGraphs(b)
	rng := rand.New(rand.NewSource(6))
	const n = 256
	x := randInput(n*c.InDim(), rng)
	out := make([]float32, n*c.OutDim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Forward(n, x, out)
	}
}

func BenchmarkReferenceForward256(b *testing.B) {
	s, c := benchGraphs(b)
	rng := rand.New(rand.NewSource(6))
	const n = 256
	x := randInput(n*c.InDim(), rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = refForward(s, []int{1, 5}, n, x)
	}
}
