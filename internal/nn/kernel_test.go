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

// TestSIMDConvTapsMatchPortable is the tap kernel's bit-identity property:
// every tower shape of windows 1..8 (k = min(3, w), two conv blocks), at
// widths the kernel covers and ones it leaves to the scalar loop, and a
// lone single-channel conv under each fused activation, over batches that
// end before, on and after a chunk boundary, with special values in weights,
// biases and inputs and unaligned input and output slices, return the
// portable graph's bits. It also checks which ops took the tap layout, so
// the property cannot pass by never running the kernel.
func TestSIMDConvTapsMatchPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	acts := []struct {
		name  string
		layer func() Layer
	}{
		{"none", nil},
		{"relu", func() Layer { return NewReLU("r") }},
		{"sigmoid", func() Layer { return NewSigmoid("s") }},
	}
	check := func(name string, s *Sequential, w int, rate float64, wantTaps bool) {
		simd, portable := compileBoth(t, s, []int{1, w})
		if got := simd.ops[0].pos != nil; got != wantTaps || portable.ops[0].pos != nil {
			t.Fatalf("%s: tap layout SIMD %v portable %v, want %v and false", name, got, portable.ops[0].pos != nil, wantTaps)
		}
		for _, n := range []int{1, 7, 64, 65, 130} {
			off := rng.Intn(8)
			x := unaligned(n*w, off)
			for i := range x {
				x[i] = spiced(rng, rate)
			}
			got := unaligned(n*simd.OutDim(), (off+5)%8)
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
	for w := 1; w <= 8; w++ {
		k := min(3, w)
		for _, out := range []int{8, 12, 32, 40} {
			taps := w > 3 && out*(w-k+1)%8 == 0
			for _, rate := range []float64{0, 0.05} {
				tower := buildTower(w, out, 2, rng)
				for _, p := range tower.Params() {
					fillParams(rng, rate, p)
				}
				check(fmt.Sprintf("tower w%d out%d rate%g", w, out, rate), tower, w, rate, taps)
			}
			for _, act := range acts {
				c := NewConv1D("c", 1, out, k, rng)
				fillParams(rng, 0.05, c.w, c.b)
				layers := []Layer{c}
				if act.layer != nil {
					layers = append(layers, act.layer())
				}
				check(fmt.Sprintf("conv w%d out%d %s", w, out, act.name), NewSequential("g", layers...), w, 0.05,
					taps && act.name != "sigmoid")
			}
		}
	}
}

// TestSIMDSpecialValues pins the cases a vector ReLU is most likely to get
// wrong: a NaN pre-activation must come back NaN, as the portable
// `if v < 0 { v = 0 }` leaves it, and ±Inf, -0 products and denormals must
// clamp the same way, in the matvec and in the tap kernel. (In the matvec a
// -0 pre-activation cannot occur: the accumulator starts at +0, and +0 + -0
// is +0. The tap kernel starts at the bias, so its row pins -0 too.)
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

	// A -0 pre-activation must come back -0 from ReLU. Filter f computes
	// ((b + w0·x0) + w1·x1) + w2·x2 at both positions of x = (1, 1, 1, 1).
	c := NewConv1D("c", 1, 8, 3, rand.New(rand.NewSource(2)))
	filters := [8][4]float64{
		{negZero, negZero, negZero, negZero},     // -0 throughout stays -0
		{math.NaN(), 0, 0, 0},                    // NaN bias stays NaN
		{0, math.Inf(1), 0, 0},                   // +Inf
		{0, 0, math.Inf(-1), 0},                  // -Inf clamps to +0
		{0, math.Inf(1), 0, math.Inf(-1)},        // Inf-Inf = NaN
		{1e-40, 0, -1e-40, 0},                    // denormals cancel to +0
		{0, 0, 0, -1e-45},                        // negative denormal clamps
		{math.MaxFloat32, 0, math.MaxFloat32, 0}, // overflow to +Inf
	}
	for f, r := range filters {
		c.b.W.Data[f] = r[0]
		copy(c.w.W.Data[f*3:f*3+3], r[1:])
	}
	simd, portable = compileBoth(t, NewSequential("g", c, NewReLU("r")), []int{1, 4})
	if simd.ops[0].pos == nil {
		t.Fatal("the 1→8 k3 conv over 4 positions did not take the tap layout")
	}
	x = []float32{1, 1, 1, 1}
	got, want = make([]float32, 16), make([]float32, 16)
	simd.Forward(1, x, got)
	portable.Forward(1, x, want)
	for o := range want {
		if !sameF32(got[o], want[o]) {
			t.Errorf("conv output %d: SIMD %v (%#08x) != portable %v (%#08x)", o,
				got[o], math.Float32bits(got[o]), want[o], math.Float32bits(want[o]))
		}
	}
	if !math.Signbit(float64(want[0])) || want[2] == want[2] || want[6] != 0 {
		t.Fatalf("portable conv ReLU no longer keeps -0, passes NaN and clamps -Inf: %v", want)
	}
}

// TestSIMDLayoutKeepsOneCopy: a SIMD-compiled matvec op holds exactly as
// many weights as the portable one (transposed block plus row-major tail,
// never both layouts), a tap-laid-out conv holds its tap table alone, and
// ops the kernels do not cover are left alone.
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

	// A tower's first conv (1→32, k = 3, 5 positions) holds its tap table
	// and position indices and nothing else: 4 rows × 96 floats + 96 int32s,
	// where the row-major op held 96 weights + 32 biases.
	simd, portable = compileBoth(t, buildTower(5, 32, 2, rng), []int{1, 5})
	opBytes := func(op *compiledOp) int { return 4 * (len(op.w) + len(op.b) + len(op.pos)) }
	if op := &simd.ops[0]; op.pos == nil || op.b != nil || len(op.w) != 4*96 || opBytes(op) != 1920 {
		t.Fatalf("tap layout: pos %d, b %d, w %d (%d B); want 96, 0, 384 (1920 B)", len(op.pos), len(op.b), len(op.w), opBytes(op))
	}
	if op := &portable.ops[0]; op.pos != nil || opBytes(op) != 512 {
		t.Fatalf("portable conv0 holds %d B and pos %v; want 512 B row-major", opBytes(op), op.pos != nil)
	}
	if len(simd.ops[1].w) != len(portable.ops[1].w) || simd.ops[1].pos != nil {
		t.Fatalf("conv1: SIMD holds %d weights, portable %d", len(simd.ops[1].w), len(portable.ops[1].w))
	}
}

// benchKernel runs one layer + ReLU over a chunk of rows of inShape, compiled
// for the SIMD kernels or the portable ones; flops is the layer's
// multiply-adds a row, counted twice.
func benchKernel(b *testing.B, simd bool, layer Layer, inShape []int, flops int) {
	if simd && !cpuHasAVX2() {
		b.Skip("no AVX2")
	}
	saved := useSIMD
	useSIMD = simd
	defer func() { useSIMD = saved }()
	c, err := Compile(NewSequential("g", layer, NewReLU("r")), inShape)
	if err != nil {
		b.Fatal(err)
	}
	const n = ChunkRows
	x := randInput(n*c.InDim(), rand.New(rand.NewSource(9)))
	y := make([]float32, n*c.OutDim())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Forward(n, x, y)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
	b.ReportMetric(float64(flops)*n*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
}

func benchDense(b *testing.B, simd bool, in, out int) {
	benchKernel(b, simd, NewDense("d", in, out, rand.New(rand.NewSource(8))), []int{in}, 2*in*out)
}

// A tower's first conv: one input channel of 5 positions, 32 filters of
// 3 taps, 3 output positions.
func benchConv0(b *testing.B, simd bool) {
	benchKernel(b, simd, NewConv1D("c", 1, 32, 3, rand.New(rand.NewSource(8))), []int{1, 5}, 2*3*32*3)
}

// The predictor's op shapes: head.fc1, a tower's second conv seen as a
// 96→32 matvec, and a tower's first conv.
func BenchmarkKernelFC1SIMD(b *testing.B)       { benchDense(b, true, 68, 128) }
func BenchmarkKernelFC1Portable(b *testing.B)   { benchDense(b, false, 68, 128) }
func BenchmarkKernelConv1SIMD(b *testing.B)     { benchDense(b, true, 96, 32) }
func BenchmarkKernelConv1Portable(b *testing.B) { benchDense(b, false, 96, 32) }
func BenchmarkKernelConv0SIMD(b *testing.B)     { benchConv0(b, true) }
func BenchmarkKernelConv0Portable(b *testing.B) { benchConv0(b, false) }
