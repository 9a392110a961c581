package predictor

import "packetgame/internal/codec"

// Store is the struct-of-arrays feature state for a fleet of streams: every
// stream's two double-write size rings live in one contiguous slab, with the
// per-stream cursors and counters in parallel arrays. It replaces a slice of
// per-stream *Window pointers in the gating hot loop so that
//
//   - pushing a round of packets walks flat arrays instead of chasing one
//     heap object per stream, and
//   - the batched forward over the round's dirty subset reads its feature
//     windows from contiguous rows (each stream's oldest-first view is one
//     subslice of the slab, exactly like Window's rings).
//
// On top of the layout, the Store tracks a per-stream *feature epoch*: a
// counter that advances only when a push actually changes what Features
// would return. A push leaves the features unchanged iff the pushed ring
// already held w copies of the same normalized value, the new value equals
// it, and the packet's picture type matches the previous one (constant-rate
// feeds — padded CBR surveillance cameras — hit this constantly). Score
// caches key on the epoch: an unchanged epoch plus unchanged fused inputs
// means the cached network output is bit-identical to a recompute.
//
// Poisoned state is maintained incrementally (non-finite and nonzero counts
// updated on push/evict), so the per-stream check is O(1) instead of an
// O(w) window scan. A Store is not safe for concurrent use; the gate
// serializes access under its mutex.
type Store struct {
	n, w int

	// Ring slabs, n rows × 2w values each: row i occupies
	// buf[i*2w : (i+1)*2w] with the double-write invariant of sizeRing.
	iBuf, pBuf []float64
	// Most recent slot per ring, in [0, w).
	iPos, pPos []int32
	// Trailing run of equal pushed values per ring, capped at w+1.
	iRun, pRun []int32
	// Nonzero and non-finite value counts within the current w-window.
	iNZ, pNZ   []int32
	iBad, pBad []int32

	last   []uint8 // last pushed picture type
	pushes []int64
	epoch  []uint64

	// NormalizeSize memo: constant-rate feeds repeat the same raw size for
	// rounds on end, and the log-affine normalization is the single most
	// expensive instruction sequence in an unchanged push. Zero values are
	// consistent from the start: NormalizeSize(0) == 0.
	lastRaw  []int64
	lastNorm []float64
}

// NewStore creates feature state for n streams with window length w.
func NewStore(n, w int) *Store {
	if w < 1 {
		w = 1
	}
	if n < 0 {
		n = 0
	}
	s := &Store{
		n: n, w: w,
		iBuf: make([]float64, n*2*w),
		pBuf: make([]float64, n*2*w),
		iPos: make([]int32, n), pPos: make([]int32, n),
		iRun: make([]int32, n), pRun: make([]int32, n),
		iNZ: make([]int32, n), pNZ: make([]int32, n),
		iBad: make([]int32, n), pBad: make([]int32, n),
		last:     make([]uint8, n),
		pushes:   make([]int64, n),
		epoch:    make([]uint64, n),
		lastRaw:  make([]int64, n),
		lastNorm: make([]float64, n),
	}
	for i := range s.iPos {
		s.iPos[i] = int32(w - 1)
		s.pPos[i] = int32(w - 1)
	}
	return s
}

// W returns the window length.
func (s *Store) W() int { return s.w }

// Streams returns the number of streams.
func (s *Store) Streams() int { return s.n }

// Epoch returns stream i's feature epoch: it advances exactly when a Push
// changed the stream's Features-visible state.
func (s *Store) Epoch(i int) uint64 { return s.epoch[i] }

// Pushes returns the number of packets folded into stream i's windows.
func (s *Store) Pushes(i int) int64 { return s.pushes[i] }

// pushRing folds v into one ring row and reports whether the w-window's
// contents changed. run/nz/bad are the ring's per-stream counter columns.
func (s *Store) pushRing(buf []float64, pos, run, nz, bad []int32, i int, v float64) bool {
	w := s.w
	row := buf[i*2*w : (i+1)*2*w]
	p := int(pos[i])
	prev := row[p]
	// Saturated identical push: the whole w-window already holds v, so the
	// write, the eviction, and every counter update are all no-ops.
	if v == prev && run[i] > int32(w) {
		return false
	}
	// The value evicted from the w-window is the current view's oldest
	// element, stored canonically at slot (p+1) mod w.
	ev := row[(p+1)%w]
	if ev != 0 {
		nz[i]--
	}
	if v != 0 {
		nz[i]++
	}
	if ev != ev { // NaN; Inf cannot survive NormalizeSize's clamp
		bad[i]--
	}
	if v != v {
		bad[i]++
	}
	if v == prev {
		if run[i] <= int32(w) {
			run[i]++
		}
	} else {
		run[i] = 1
	}
	p++
	if p == w {
		p = 0
	}
	row[p] = v
	row[p+w] = v
	pos[i] = int32(p)
	// Unchanged iff the previous w pushes (the outgoing view) were all v
	// and the new value is v again: run counts the current push too, so
	// that is run >= w+1.
	return run[i] < int32(s.w+1)
}

// Push folds one parsed packet into stream i's windows, advancing the
// feature epoch only if the Features-visible state changed. O(1).
func (s *Store) Push(i int, p *codec.Packet) {
	var v float64
	if int64(p.Size) == s.lastRaw[i] {
		v = s.lastNorm[i]
	} else {
		v = NormalizeSize(p.Size)
		s.lastRaw[i] = int64(p.Size)
		s.lastNorm[i] = v
	}
	var changed bool
	if p.Type == codec.PictureI {
		changed = s.pushRing(s.iBuf, s.iPos, s.iRun, s.iNZ, s.iBad, i, v)
	} else {
		changed = s.pushRing(s.pBuf, s.pPos, s.pRun, s.pNZ, s.pBad, i, v)
	}
	if s.last[i] != uint8(p.Type) {
		s.last[i] = uint8(p.Type)
		changed = true
	}
	s.pushes[i]++
	if changed {
		s.epoch[i]++
	}
}

// Features builds stream i's predictor input with the given temporal
// estimate. Allocation-free: the size views alias the store's slab, oldest
// first, and stay valid until the stream's next Push.
func (s *Store) Features(i int, temporal float64) Features {
	w := s.w
	iRow := s.iBuf[i*2*w : (i+1)*2*w]
	pRow := s.pBuf[i*2*w : (i+1)*2*w]
	f := Features{
		ISizes:   iRow[s.iPos[i]+1 : int(s.iPos[i])+1+w],
		PSizes:   pRow[s.pPos[i]+1 : int(s.pPos[i])+1+w],
		Temporal: temporal,
	}
	f.Pict[s.last[i]] = 1
	return f
}

// Poisoned reports whether stream i's windows cannot be trusted as
// predictor input, with Window.Poisoned's exact semantics (any non-finite
// value, or a full all-zero window after w pushes) evaluated from the
// incrementally maintained counters in O(1).
func (s *Store) Poisoned(i int) bool {
	if s.iBad[i] > 0 || s.pBad[i] > 0 {
		return true
	}
	return s.iNZ[i] == 0 && s.pNZ[i] == 0 && s.pushes[i] >= int64(s.w)
}
