package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// compileBoth compiles s once for the AVX2 kernel and once for the portable
// kernels, flipping the package switch Compile reads. Skips where the SIMD
// path cannot run.
func compileBoth(t *testing.T, s *Sequential, inShape []int) (simd, portable *Compiled) {
	t.Helper()
	if !cpuHasAVX2() {
		t.Skip("no AVX2 on this host: the portable kernels are the only path")
	}
	saved := useSIMD
	defer func() { useSIMD = saved }()
	var err error
	useSIMD = true
	if simd, err = Compile(s, inShape); err != nil {
		t.Fatalf("Compile (SIMD): %v", err)
	}
	useSIMD = false
	if portable, err = Compile(s, inShape); err != nil {
		t.Fatalf("Compile (portable): %v", err)
	}
	return simd, portable
}

// specials are the float32 values arithmetic treats differently from the
// rest: both zeros, both infinities, NaN, the denormal range and the
// extremes of the normal one.
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	1e-45, -1e-45, 1e-40, -3e-39, math.SmallestNonzeroFloat32,
	math.MaxFloat32, -math.MaxFloat32, 1.1754944e-38,
}

// spiced draws a value that is ordinary most of the time and one of the
// specials otherwise.
func spiced(rng *rand.Rand, rate float64) float32 {
	if rng.Float64() < rate {
		return specials[rng.Intn(len(specials))]
	}
	return float32(rng.NormFloat64())
}

// sameF32 is bit equality, except that any NaN equals any NaN: which
// operand's payload and sign a NaN result carries depends on the operand
// order the compiler picked for the scalar add, which Go does not specify.
func sameF32(a, b float32) bool {
	if a != a || b != b {
		return a != a && b != b
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

// fillParams overwrites a layer's float64 parameters with spiced values
// (Compile narrows them to float32, so denormals and infinities survive).
func fillParams(rng *rand.Rand, rate float64, ps ...*Param) {
	for _, p := range ps {
		for i := range p.W.Data {
			p.W.Data[i] = float64(spiced(rng, rate))
		}
	}
}

// unaligned returns an n-value slice that starts off floats into its
// backing array, so consecutive cases hit every 4-byte alignment of the
// kernel's 32-byte loads and stores.
func unaligned(n, off int) []float32 {
	return make([]float32, n+off)[off:]
}

// TestSIMDMatchesPortable is the kernel's bit-identity property: over every
// input width 1..130, output widths that are multiples of 8 and 32 and ragged
// ones (whose out%8 tail rows keep the portable 4-row/dot order), all three
// fused activations, dense and the inL == k conv, with special values in
// weights, biases and inputs and unaligned input/output slices, the AVX2
// graph returns the portable graph's bits.
func TestSIMDMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	outs := []int{8, 16, 24, 32, 40, 64, 96, 128, 9, 11, 12, 15, 33, 37, 71, 131}
	acts := []struct {
		name  string
		layer func() Layer
	}{
		{"none", nil},
		{"relu", func() Layer { return NewReLU("r") }},
		{"sigmoid", func() Layer { return NewSigmoid("s") }},
	}
	check := func(name string, s *Sequential, inShape []int, rate float64) {
		simd, portable := compileBoth(t, s, inShape)
		for _, n := range []int{1, 3} {
			off := rng.Intn(8)
			x := unaligned(n*simd.InDim(), off)
			for i := range x {
				x[i] = spiced(rng, rate)
			}
			got := unaligned(n*simd.OutDim(), (off+3)%8)
			want := make([]float32, n*simd.OutDim())
			simd.Forward(n, x, got)
			portable.Forward(n, x, want)
			for i := range want {
				if !sameF32(got[i], want[i]) {
					t.Fatalf("%s n=%d output %d: SIMD %v (%#08x) != portable %v (%#08x)", name, n, i,
						got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
				}
			}
		}
	}
	for in := 1; in <= 130; in++ {
		for _, out := range outs {
			act := acts[(in+out)%len(acts)]
			// Specials everywhere would turn every sum into NaN; alternate
			// between clean data and a sprinkling that still leaves most
			// outputs finite.
			rate := 0.0
			if in%2 == 0 {
				rate = 0.5 / float64(in)
			}
			d := NewDense("d", in, out, rng)
			fillParams(rng, rate, d.w, d.b)
			layers := []Layer{d}
			if act.layer != nil {
				layers = append(layers, act.layer())
			}
			check(fmt.Sprintf("dense %d→%d %s", in, out, act.name), NewSequential("g", layers...), []int{in}, rate)
		}
	}
	// The single-position conv (inL == k) shares the kernel: [in][k] input
	// blocks against [out][in][k] filters.
	for _, tc := range []struct{ in, out, k int }{{32, 32, 3}, {5, 40, 3}, {7, 19, 2}, {1, 8, 1}, {43, 96, 3}} {
		for _, act := range acts {
			c := NewConv1D("c", tc.in, tc.out, tc.k, rng)
			fillParams(rng, 0.002, c.w, c.b)
			layers := []Layer{c}
			if act.layer != nil {
				layers = append(layers, act.layer())
			}
			check(fmt.Sprintf("conv %d→%d k%d %s", tc.in, tc.out, tc.k, act.name),
				NewSequential("g", layers...), []int{tc.in, tc.k}, 0.002)
		}
	}
}

// TestSIMDSpecialValues pins the cases a vector ReLU is most likely to get
// wrong: a NaN pre-activation must come back NaN, as the portable
// `if v < 0 { v = 0 }` leaves it, and ±Inf, -0 products and denormals must
// clamp the same way. (A -0 pre-activation cannot occur: the accumulator
// starts at +0, and +0 + -0 is +0.)
func TestSIMDSpecialValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	d := NewDense("d", 2, 8, rand.New(rand.NewSource(1)))
	// Row o computes w[o][0]·x0 + w[o][1]·x1 + b[o] with x = (1, 1).
	rows := [8][3]float64{
		{negZero, negZero, negZero},           // -0 products and bias sum to +0
		{math.NaN(), 0, 0},                    // NaN stays NaN
		{math.Inf(1), 0, 0},                   // +Inf
		{math.Inf(-1), 0, 0},                  // -Inf clamps to +0
		{math.Inf(1), math.Inf(-1), 0},        // Inf-Inf = NaN
		{1e-40, -1e-40, 0},                    // denormals cancel to +0
		{-1e-45, 0, 0},                        // negative denormal clamps
		{math.MaxFloat32, math.MaxFloat32, 0}, // overflow to +Inf
	}
	for o, r := range rows {
		d.w.W.Data[o*2], d.w.W.Data[o*2+1], d.b.W.Data[o] = r[0], r[1], r[2]
	}
	simd, portable := compileBoth(t, NewSequential("g", d, NewReLU("r")), []int{2})
	x := []float32{1, 1}
	got, want := make([]float32, 8), make([]float32, 8)
	simd.Forward(1, x, got)
	portable.Forward(1, x, want)
	for o := range want {
		if !sameF32(got[o], want[o]) {
			t.Errorf("row %d: SIMD %v (%#08x) != portable %v (%#08x)", o,
				got[o], math.Float32bits(got[o]), want[o], math.Float32bits(want[o]))
		}
	}
	if want[1] == want[1] || want[3] != 0 || want[4] == want[4] {
		t.Fatalf("portable ReLU no longer passes NaN and clamps -Inf: %v", want)
	}
}

// TestSIMDLayoutKeepsOneCopy: a SIMD-compiled op holds exactly as many
// weights as the portable one (transposed block plus row-major tail, never
// both layouts), and ops the kernel does not cover are left alone.
func TestSIMDLayoutKeepsOneCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := NewSequential("head", NewDense("fc1", 68, 37, rng), NewReLU("r"), NewDense("out", 37, 1, rng), NewSigmoid("s"))
	simd, portable := compileBoth(t, s, []int{68})
	for i := range simd.ops {
		if len(simd.ops[i].w) != len(portable.ops[i].w) {
			t.Fatalf("op %d: SIMD layout holds %d weights, portable %d", i, len(simd.ops[i].w), len(portable.ops[i].w))
		}
	}
	if simd.ops[0].lanes != 32 || simd.ops[1].lanes != 0 || portable.ops[0].lanes != 0 {
		t.Fatalf("lanes: simd %d,%d portable %d; want 32,0 and 0", simd.ops[0].lanes, simd.ops[1].lanes, portable.ops[0].lanes)
	}
}

func benchKernel(b *testing.B, simd bool, in, out int) {
	if simd && !cpuHasAVX2() {
		b.Skip("no AVX2")
	}
	saved := useSIMD
	useSIMD = simd
	defer func() { useSIMD = saved }()
	rng := rand.New(rand.NewSource(8))
	c, err := Compile(NewSequential("g", NewDense("d", in, out, rng), NewReLU("r")), []int{in})
	if err != nil {
		b.Fatal(err)
	}
	const n = ChunkRows
	x := randInput(n*in, rng)
	y := make([]float32, n*out)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Forward(n, x, y)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
	b.ReportMetric(float64(2*in*out)*n*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
}

// The two shapes that hold the predictor's FLOPs: head.fc1 and a tower's
// second conv seen as a 96→32 matvec.
func BenchmarkKernelFC1SIMD(b *testing.B)       { benchKernel(b, true, 68, 128) }
func BenchmarkKernelFC1Portable(b *testing.B)   { benchKernel(b, false, 68, 128) }
func BenchmarkKernelConv1SIMD(b *testing.B)     { benchKernel(b, true, 96, 32) }
func BenchmarkKernelConv1Portable(b *testing.B) { benchKernel(b, false, 96, 32) }
