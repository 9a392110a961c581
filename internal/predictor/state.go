package predictor

import (
	"fmt"
	"math"

	"packetgame/internal/codec"
)

// RowState is one stream's portable slice of a Store: both size windows in
// canonical oldest-first order plus the cursors and counters that make
// pushes, epochs, and the score cache behave identically after a migration.
// The ring's absolute slot positions are NOT part of the state — an import
// re-bases the ring at the canonical cursor — so two stores that agree on a
// stream's push history export byte-identical rows.
type RowState struct {
	// IValues and PValues are the normalized size windows, oldest first,
	// each exactly w long.
	IValues []float64
	PValues []float64
	// IRun and PRun are the trailing runs of equal pushed values per ring,
	// capped at w+1 (the saturation sentinel).
	IRun, PRun int32
	// Last is the last pushed picture type ordinal.
	Last uint8
	// Pushes counts packets folded into the windows; Epoch is the feature
	// epoch the score cache keys on.
	Pushes int64
	Epoch  uint64
	// LastRaw and LastNorm memoize the last NormalizeSize evaluation.
	LastRaw  int64
	LastNorm float64
}

// ExportRow extracts stream i's feature state. The store is unchanged.
func (s *Store) ExportRow(i int) (RowState, error) {
	if i < 0 || i >= s.n {
		return RowState{}, fmt.Errorf("predictor: export row %d out of range [0,%d)", i, s.n)
	}
	w := s.w
	iRow := s.iBuf[i*2*w : (i+1)*2*w]
	pRow := s.pBuf[i*2*w : (i+1)*2*w]
	st := RowState{
		IValues:  append([]float64(nil), iRow[s.iPos[i]+1:int(s.iPos[i])+1+w]...),
		PValues:  append([]float64(nil), pRow[s.pPos[i]+1:int(s.pPos[i])+1+w]...),
		IRun:     s.iRun[i],
		PRun:     s.pRun[i],
		Last:     s.last[i],
		Pushes:   s.pushes[i],
		Epoch:    s.epoch[i],
		LastRaw:  s.lastRaw[i],
		LastNorm: s.lastNorm[i],
	}
	return st, nil
}

// FreshRow is the row of a stream that never pushed a packet into a store
// with window length w: what ResetRow leaves and ExportRow then returns.
func FreshRow(w int) RowState {
	return RowState{IValues: make([]float64, w), PValues: make([]float64, w)}
}

// Validate checks that st could have been exported by a store with window
// length w. A NaN window value is a poisoned (but possible) packet size;
// ±Inf never is, since NormalizeSize clamps, so a row carrying one is
// refused rather than imported as a window Poisoned could not see.
func (st RowState) Validate(w int) error {
	if len(st.IValues) != w || len(st.PValues) != w {
		return fmt.Errorf("predictor: import row: window lengths %d/%d, want %d", len(st.IValues), len(st.PValues), w)
	}
	if st.IRun < 0 || st.IRun > int32(w+1) || st.PRun < 0 || st.PRun > int32(w+1) {
		return fmt.Errorf("predictor: import row: runs %d/%d outside [0,%d]", st.IRun, st.PRun, w+1)
	}
	for j := 0; j < w; j++ {
		if math.IsInf(st.IValues[j], 0) || math.IsInf(st.PValues[j], 0) {
			return fmt.Errorf("predictor: import row: infinite window value at slot %d", j)
		}
	}
	if st.Last > uint8(codec.PictureB) {
		return fmt.Errorf("predictor: import row: picture type %d out of range", st.Last)
	}
	if st.Pushes < 0 {
		return fmt.Errorf("predictor: import row: negative push count %d", st.Pushes)
	}
	return nil
}

// ImportRow installs an exported row for stream i, overwriting whatever the
// row held. The ring is re-based at the canonical cursor (pos = w-1) with
// the double-write invariant restored, and the nonzero/non-finite counters
// are recomputed from the imported windows, so Features, Poisoned, and
// subsequent pushes behave bit-identically to the donor store.
func (s *Store) ImportRow(i int, st RowState) error {
	if i < 0 || i >= s.n {
		return fmt.Errorf("predictor: import row %d out of range [0,%d)", i, s.n)
	}
	w := s.w
	if err := st.Validate(w); err != nil {
		return err
	}
	iRow := s.iBuf[i*2*w : (i+1)*2*w]
	pRow := s.pBuf[i*2*w : (i+1)*2*w]
	var iNZ, pNZ, iBad, pBad int32
	for j := 0; j < w; j++ {
		iv, pv := st.IValues[j], st.PValues[j]
		iRow[j], iRow[j+w] = iv, iv
		pRow[j], pRow[j+w] = pv, pv
		if iv != 0 {
			iNZ++
		}
		if pv != 0 {
			pNZ++
		}
		if math.IsNaN(iv) {
			iBad++
		}
		if math.IsNaN(pv) {
			pBad++
		}
	}
	s.iPos[i], s.pPos[i] = int32(w-1), int32(w-1)
	s.iRun[i], s.pRun[i] = st.IRun, st.PRun
	s.iNZ[i], s.pNZ[i] = iNZ, pNZ
	s.iBad[i], s.pBad[i] = iBad, pBad
	s.last[i] = st.Last
	s.pushes[i] = st.Pushes
	s.epoch[i] = st.Epoch
	s.lastRaw[i] = st.LastRaw
	s.lastNorm[i] = st.LastNorm
	return nil
}

// ResetRow returns stream i's row to the fresh (never-pushed) state.
func (s *Store) ResetRow(i int) error {
	if i < 0 || i >= s.n {
		return fmt.Errorf("predictor: reset row %d out of range [0,%d)", i, s.n)
	}
	w := s.w
	iRow := s.iBuf[i*2*w : (i+1)*2*w]
	pRow := s.pBuf[i*2*w : (i+1)*2*w]
	for j := range iRow {
		iRow[j] = 0
		pRow[j] = 0
	}
	s.iPos[i], s.pPos[i] = int32(w-1), int32(w-1)
	s.iRun[i], s.pRun[i] = 0, 0
	s.iNZ[i], s.pNZ[i] = 0, 0
	s.iBad[i], s.pBad[i] = 0, 0
	s.last[i] = 0
	s.pushes[i] = 0
	s.epoch[i] = 0
	s.lastRaw[i] = 0
	s.lastNorm[i] = 0
	return nil
}
