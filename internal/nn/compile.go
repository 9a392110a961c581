package nn

import (
	"fmt"
	"math"
	"sync"
)

// This file implements the inference-only fast path: Compile snapshots a
// trained Sequential into a flat float32 graph of fused forward kernels.
// The compiled graph never allocates on the forward path (scratch comes
// from a sync.Pool), never builds im2col matrices (Conv1D walks the input
// windows directly with the weights flattened row-major), and fuses ReLU /
// Sigmoid into the preceding Conv1D or Dense so activations are applied in
// the same pass that produces them. Training stays on the autodiff Layer
// stack; the gate's hot loop runs here.

// Activation is an activation fused into a compiled op.
type Activation uint8

// Fusable activations.
const (
	ActNone Activation = iota
	ActReLU
	ActSigmoid
)

type opKind uint8

const (
	opConv opKind = iota
	opDense
	opPool
)

// compiledOp is one fused stage of the inference graph. Weights live in a
// flat row-major []float32 (filter-major for conv: [out][in][k]), except that
// a matvec-shaped op compiled for the SIMD kernel keeps its first `lanes`
// output rows transposed (see laneLayout) and a single-channel conv compiled
// for it keeps a per-output tap table instead (see tapLayout) — one layout
// per op, never both.
//
// There is deliberately no int8 variant: a quantized path existed and
// honestly measured 0.28× the scalar float32 kernels before its removal,
// and it could not have kept the float32 decisions bit-for-bit, which the AVX2 float32 kernel does — see DESIGN.md
// for the full rationale.
type compiledOp struct {
	kind opKind
	act  Activation

	in, out     int // channels (conv) or features (dense); pool: in == channels
	k           int // conv kernel width
	inL, outLen int // conv: input/output length; pool: inL

	// lanes > 0 marks a matvec-shaped op laid out for matvecAVX2: that many
	// leading output rows (a multiple of 8) are stored [in][lanes].
	lanes int
	// pos != nil marks a single-channel k = 3 conv laid out for conv3AVX2:
	// w is its tap table, b is nil, and pos[o] is the input index output
	// o's first tap reads.
	pos []int32

	w []float32
	b []float32
}

func (op *compiledOp) outSize() int {
	switch op.kind {
	case opConv:
		return op.out * op.outLen
	case opPool:
		return op.in
	default:
		return op.out
	}
}

// Compiled is an immutable inference snapshot of a Sequential. Forward is
// safe for concurrent use: all mutable state is pooled per call.
type Compiled struct {
	name   string
	ops    []compiledOp
	inDim  int
	outDim int
}

// InDim returns the per-example input element count.
func (c *Compiled) InDim() int { return c.inDim }

// OutDim returns the per-example output element count.
func (c *Compiled) OutDim() int { return c.outDim }

// Compile snapshots the Sequential's current parameters into a float32
// inference graph for the given per-example input shape. Supported layers:
// Conv1D, Dense, GlobalMaxPool1D, Flatten, ReLU, Sigmoid; ReLU/Sigmoid
// directly after a Conv1D or Dense are fused into it. The snapshot is
// decoupled from the live parameters: training after Compile requires a
// fresh Compile to be observed.
func Compile(s *Sequential, inShape []int) (*Compiled, error) {
	return compile(s, inShape)
}

func compile(s *Sequential, inShape []int) (*Compiled, error) {
	if s == nil {
		return nil, fmt.Errorf("nn: compile: nil sequential")
	}
	inDim := 1
	for _, d := range inShape {
		if d <= 0 {
			return nil, fmt.Errorf("nn: compile %s: bad input shape %v", s.Name(), inShape)
		}
		inDim *= d
	}
	c := &Compiled{name: s.Name(), inDim: inDim}
	shape := append([]int(nil), inShape...)
	layers := s.Layers()
	for idx := 0; idx < len(layers); idx++ {
		l := layers[idx]
		// Fusable activation lookahead.
		fuse := func() Activation {
			if idx+1 < len(layers) {
				switch layers[idx+1].(type) {
				case *ReLU:
					idx++
					return ActReLU
				case *Sigmoid:
					idx++
					return ActSigmoid
				}
			}
			return ActNone
		}
		switch lt := l.(type) {
		case *Conv1D:
			if len(shape) != 2 || shape[0] != lt.in || shape[1] < lt.k {
				return nil, fmt.Errorf("nn: compile %s: conv %s: input shape %v", c.name, lt.name, shape)
			}
			op := compiledOp{
				kind: opConv, in: lt.in, out: lt.out, k: lt.k,
				inL: shape[1], outLen: shape[1] - lt.k + 1,
			}
			op.act = fuse()
			fillWeights(&op, lt.w.W.Data, lt.b.W.Data)
			if op.inL == op.k {
				op.laneLayout(op.in * op.k)
			} else {
				op.tapLayout()
			}
			shape = []int{lt.out, op.outLen}
			c.ops = append(c.ops, op)
		case *Dense:
			if len(shape) != 1 || shape[0] != lt.in {
				return nil, fmt.Errorf("nn: compile %s: dense %s: input shape %v", c.name, lt.name, shape)
			}
			op := compiledOp{kind: opDense, in: lt.in, out: lt.out}
			fillWeights(&op, lt.w.W.Data, lt.b.W.Data)
			op.laneLayout(op.in)
			shape = []int{lt.out}
			op.act = fuse()
			c.ops = append(c.ops, op)
		case *GlobalMaxPool1D:
			if len(shape) != 2 {
				return nil, fmt.Errorf("nn: compile %s: pool %s: input shape %v", c.name, lt.name, shape)
			}
			c.ops = append(c.ops, compiledOp{kind: opPool, in: shape[0], inL: shape[1]})
			shape = []int{shape[0]}
		case *Flatten:
			// Row-major data is already flat; shape bookkeeping only.
			shape = lt.OutShape(shape)
		case *ReLU, *Sigmoid:
			// Unfused activation (graph starts with one, or two in a row):
			// attach to a pass-through on the previous op if possible,
			// otherwise reject — the predictor's architectures never need it.
			return nil, fmt.Errorf("nn: compile %s: unfused activation %s", c.name, l.Name())
		default:
			return nil, fmt.Errorf("nn: compile %s: unsupported layer %T", c.name, l)
		}
	}
	if len(c.ops) == 0 {
		return nil, fmt.Errorf("nn: compile %s: empty graph", c.name)
	}
	out := 1
	for _, d := range shape {
		out *= d
	}
	c.outDim = out
	return c, nil
}

// fillWeights snapshots one layer's parameters into float32.
func fillWeights(op *compiledOp, w, b []float64) {
	op.w = make([]float32, len(w))
	for i, v := range w {
		op.w[i] = float32(v)
	}
	op.b = make([]float32, len(b))
	for i, v := range b {
		op.b[i] = float32(v)
	}
}

// portableOnly, when the linker sets it non-empty (`make alloc-smoke` passes
// -ldflags "-X packetgame/internal/nn.portableOnly=1"), keeps every Compile
// in the process on the portable kernels, so a host with AVX2 still runs the
// tests through the path every other host takes.
var portableOnly string

// useSIMD makes Compile lay matvec-shaped ops out for matvecAVX2 and
// single-channel convs for conv3AVX2. It is fixed at start-up from the CPU;
// only the kernel tests flip it, to compile one set of weights both ways.
var useSIMD = portableOnly == "" && cpuHasAVX2()

// laneLayout re-lays a row-major [out][in] matvec op for the lane-per-output
// kernel: the first lanes = out&^7 rows are transposed to [in][lanes], so the
// eight outputs one vector holds sit side by side for every input; the out%8
// rows left over stay row-major behind them and run through the portable
// matvec, whose 4-row blocks line up because lanes is a multiple of 4.
func (op *compiledOp) laneLayout(in int) {
	lanes := op.out &^ 7
	if !useSIMD || lanes == 0 || in == 0 {
		return
	}
	w := make([]float32, len(op.w))
	for o := 0; o < lanes; o++ {
		for i := 0; i < in; i++ {
			w[i*lanes+o] = op.w[o*in+i]
		}
	}
	copy(w[in*lanes:], op.w[in*lanes:])
	op.w, op.lanes = w, lanes
}

// tapLayout re-lays a single-channel k = 3 conv for conv3AVX2, one lane per
// output o = f·outLen+p: w becomes four rows of out·outLen floats — row 0 the
// bias b[f], row 1+t the tap w[f][t] — and pos[o] = p. The kernel holds a
// whole input row in one vector, so rows longer than 8 stay on the scalar
// loop, as do widths that are not a multiple of 8 and a fused sigmoid.
func (op *compiledOp) tapLayout() {
	width := op.out * op.outLen
	if !useSIMD || op.in != 1 || op.k != 3 || op.inL > 8 || width%8 != 0 || op.act == ActSigmoid {
		return
	}
	w := make([]float32, 4*width)
	pos := make([]int32, width)
	for o := range pos {
		f, p := o/op.outLen, o%op.outLen
		w[o] = op.b[f]
		for t := 0; t < 3; t++ {
			w[(t+1)*width+o] = op.w[f*3+t]
		}
		pos[o] = int32(p)
	}
	op.w, op.b, op.pos = w, nil, pos
}

// ChunkRows is the number of examples Forward carries through the whole
// graph at a time. A chunk's activations (a few tens of KB for the
// predictor's graphs) stay in L1/L2 from one op to the next, and the pooled
// scratch is bounded by the chunk instead of growing with the batch.
const ChunkRows = 64

// fwdScratch is the pooled per-call state of Compiled.Forward: two
// ping-pong activation buffers, each at most ChunkRows × the widest op
// output. Pooling keeps Forward allocation-free in steady state and safe for
// concurrent callers.
type fwdScratch struct {
	a, b []float32
}

var fwdPool = sync.Pool{New: func() interface{} { return new(fwdScratch) }}

func growF32(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// Forward runs the compiled graph on n examples packed row-major in x
// (n·InDim values), writing the n·OutDim outputs into out. It panics on a
// size mismatch, mirroring the Layer stack's shape checks.
func (c *Compiled) Forward(n int, x []float32, out []float32) {
	if len(x) < n*c.inDim {
		panic(fmt.Sprintf("nn: compiled %s: %d inputs for batch %d×%d", c.name, len(x), n, c.inDim))
	}
	if len(out) < n*c.outDim {
		panic(fmt.Sprintf("nn: compiled %s: %d outputs for batch %d×%d", c.name, len(out), n, c.outDim))
	}
	sc := fwdPool.Get().(*fwdScratch)
	for lo := 0; lo < n; lo += ChunkRows {
		hi := min(lo+ChunkRows, n)
		c.forwardChunk(sc, hi-lo, x[lo*c.inDim:hi*c.inDim], out[lo*c.outDim:hi*c.outDim])
	}
	fwdPool.Put(sc)
}

// forwardChunk runs every op over one chunk of n ≤ ChunkRows examples. The
// kernels are row-independent, so chunking cannot change a bit of any row.
func (c *Compiled) forwardChunk(sc *fwdScratch, n int, x, out []float32) {
	src := x
	useA := true
	for oi := range c.ops {
		op := &c.ops[oi]
		var dst []float32
		if oi == len(c.ops)-1 {
			dst = out
		} else if useA {
			sc.a = growF32(sc.a, n*op.outSize())
			dst = sc.a
			useA = false
		} else {
			sc.b = growF32(sc.b, n*op.outSize())
			dst = sc.b
			useA = true
		}
		switch op.kind {
		case opConv:
			convForward(op, n, src, dst)
		case opDense:
			denseForward(op, n, src, dst)
		default:
			poolForward(op, n, src, dst)
		}
		src = dst
	}
}

// activate applies the fused activation to one scalar. The transcendental
// lives in sigmoid32 so this stays under the inlining budget — the kernels
// call it once per output value, so a real call here costs ~10% of a round.
func activate(act Activation, v float32) float32 {
	if act == ActReLU {
		if v < 0 {
			return 0
		}
		return v
	}
	if act == ActSigmoid {
		return sigmoid32(v)
	}
	return v
}

// sigmoid32 is kept out of line so activate's own inline cost stays low: the
// ReLU path (tower outputs, ~100× more calls than sigmoid) then folds into
// the kernel loops.
//
//go:noinline
func sigmoid32(v float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(v))))
}

// convForward is the im2col-free fused Conv1D kernel. Three layout facts make
// the predictor's convs cheap: when inL == k there is a single output
// position and the [in][inL] input block lines up element-for-element with
// the [in][k] filter row, so the conv is one long dot; a single-channel
// k = 3 conv over at most 8 positions fits one vector, so conv3AVX2 runs it
// from its tap table; and the common k = 3 is otherwise unrolled with direct
// indexing instead of per-channel subslices (whose setup cost dwarfs three
// multiplies).
func convForward(op *compiledOp, n int, x, y []float32) {
	in, out, k, inL, outL := op.in, op.out, op.k, op.inL, op.outLen
	if inL == k {
		matvecRows(op, n, in*k, x, y)
		return
	}
	if op.pos != nil {
		x, y = x[:n*inL], y[:n*out*outL]
		conv3AVX2(&op.w[0], &op.pos[0], &x[0], &y[0], inL, out*outL, n, op.act == ActReLU)
		return
	}
	if k == 3 && in == 1 {
		// Single input channel (the towers' first conv): the three filter
		// taps live in registers across the whole position sweep. This is
		// the order conv3AVX2's lanes keep: bias first, taps ascending.
		for bi := 0; bi < n; bi++ {
			xb := x[bi*inL : bi*inL+inL]
			yb := y[bi*out*outL : (bi+1)*out*outL]
			for f := 0; f < out; f++ {
				w0, w1, w2 := op.w[f*3], op.w[f*3+1], op.w[f*3+2]
				bias := op.b[f]
				yo := yb[f*outL : f*outL+outL]
				for p := range yo {
					yo[p] = activate(op.act, bias+w0*xb[p]+w1*xb[p+1]+w2*xb[p+2])
				}
			}
		}
		return
	}
	if k == 3 {
		for bi := 0; bi < n; bi++ {
			xb := x[bi*in*inL : (bi+1)*in*inL]
			yb := y[bi*out*outL : (bi+1)*out*outL]
			for f := 0; f < out; f++ {
				wf := op.w[f*in*3 : (f+1)*in*3]
				bias := op.b[f]
				for ol := 0; ol < outL; ol++ {
					var s0, s1 float32
					for ci := 0; ci < in; ci++ {
						wo := ci * 3
						xo := ci*inL + ol
						s0 += wf[wo]*xb[xo] + wf[wo+2]*xb[xo+2]
						s1 += wf[wo+1] * xb[xo+1]
					}
					yb[f*outL+ol] = activate(op.act, bias+s0+s1)
				}
			}
		}
		return
	}
	for bi := 0; bi < n; bi++ {
		xb := x[bi*in*inL : (bi+1)*in*inL]
		yb := y[bi*out*outL : (bi+1)*out*outL]
		for f := 0; f < out; f++ {
			wf := op.w[f*in*k : (f+1)*in*k]
			bias := op.b[f]
			for ol := 0; ol < outL; ol++ {
				var s0, s1 float32
				ci := 0
				for ; ci+1 < in; ci += 2 {
					w0 := wf[ci*k : ci*k+k]
					x0 := xb[ci*inL+ol : ci*inL+ol+k]
					w1 := wf[(ci+1)*k : (ci+1)*k+k]
					x1 := xb[(ci+1)*inL+ol : (ci+1)*inL+ol+k]
					var a, b float32
					for kk := 0; kk < k; kk++ {
						a += w0[kk] * x0[kk]
						b += w1[kk] * x1[kk]
					}
					s0 += a
					s1 += b
				}
				if ci < in {
					w0 := wf[ci*k : ci*k+k]
					x0 := xb[ci*inL+ol : ci*inL+ol+k]
					var a float32
					for kk := 0; kk < k; kk++ {
						a += w0[kk] * x0[kk]
					}
					s0 += a
				}
				yb[f*outL+ol] = activate(op.act, bias+s0+s1)
			}
		}
	}
}

// dot is the 4-way unrolled float32 dot product (four independent
// accumulators give the out-of-order core real instruction parallelism).
func dot(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+3 < len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// denseForward is the fused Dense kernel: a matvec per example.
func denseForward(op *compiledOp, n int, x, y []float32) {
	matvecRows(op, n, op.in, x, y)
}

// matvecRows computes n ≥ 1 independent matvecs, y[r] = act(b + W·x[r]) over
// rows of `in` inputs and op.out outputs. An op laid out by laneLayout runs
// its first op.lanes outputs through the AVX2 kernel (the sigmoid, which has
// no vector form, is applied to what it stored) and only the out%8 tail
// through the portable matvec; any other op is the portable matvec alone.
func matvecRows(op *compiledOp, n, in int, x, y []float32) {
	out, lanes := op.out, op.lanes
	x, y = x[:n*in], y[:n*out]
	if lanes > 0 {
		matvecAVX2(&op.w[0], &op.b[0], &x[0], &y[0], in, lanes, out, n, op.act == ActReLU)
		if op.act == ActSigmoid {
			for bi := 0; bi < n; bi++ {
				row := y[bi*out : bi*out+lanes]
				for o, v := range row {
					row[o] = sigmoid32(v)
				}
			}
		}
		if lanes == out {
			return
		}
	}
	wTail, bTail := op.w[in*lanes:], op.b[lanes:]
	for bi := 0; bi < n; bi++ {
		matvec(wTail, bTail, x[bi*in:(bi+1)*in], y[bi*out+lanes:(bi+1)*out], in, out-lanes, op.act)
	}
}

// matvec computes y[o] = act(b[o] + w[o]·x) with 4-row register blocking:
// every x element loaded feeds four output rows, so the kernel is bound by
// multiply throughput instead of load ports (a lone dot spends two loads per
// multiply; this spends five loads per four multiplies).
func matvec(w, b, x, y []float32, in, out int, act Activation) {
	xr := x[:in]
	o := 0
	for ; o+3 < out; o += 4 {
		w0 := w[o*in : o*in+in]
		w1 := w[(o+1)*in : (o+1)*in+in]
		w2 := w[(o+2)*in : (o+2)*in+in]
		w3 := w[(o+3)*in : (o+3)*in+in]
		var s0, s1, s2, s3 float32
		for i, xv := range xr {
			s0 += w0[i] * xv
			s1 += w1[i] * xv
			s2 += w2[i] * xv
			s3 += w3[i] * xv
		}
		y[o] = activate(act, b[o]+s0)
		y[o+1] = activate(act, b[o+1]+s1)
		y[o+2] = activate(act, b[o+2]+s2)
		y[o+3] = activate(act, b[o+3]+s3)
	}
	for ; o < out; o++ {
		y[o] = activate(act, b[o]+dot(w[o*in:(o+1)*in], xr))
	}
}

// poolForward is GlobalMaxPool1D: [N, C, L] → [N, C].
func poolForward(op *compiledOp, n int, x, y []float32) {
	c, l := op.in, op.inL
	if l == 1 {
		// The predictor's towers end on a single position: nothing to reduce.
		copy(y[:n*c], x)
		return
	}
	for bi := 0; bi < n; bi++ {
		for ci := 0; ci < c; ci++ {
			row := x[(bi*c+ci)*l : (bi*c+ci+1)*l]
			best := row[0]
			for _, v := range row[1:] {
				if v > best {
					best = v
				}
			}
			y[bi*c+ci] = best
		}
	}
}
