package decode

import "fmt"

// TrackerState is the portable dependency state of one stream's Tracker:
// everything needed for the importing gate to charge bit-identical
// dependency-inclusive costs after a migration.
type TrackerState struct {
	UndecodedI     bool
	UndecodedPs    int
	NextRefPrepaid bool
	SawAny         bool
}

// Export extracts the tracker's dependency state. The tracker is unchanged.
func (t *Tracker) Export() TrackerState {
	return TrackerState{
		UndecodedI:     t.undecodedI,
		UndecodedPs:    t.undecodedPs,
		NextRefPrepaid: t.nextRefPrepaid,
		SawAny:         t.sawAny,
	}
}

// Validate checks that st is a state some tracker could have exported: a
// negative debt of skipped P-frames would charge negative costs.
func (st TrackerState) Validate() error {
	if st.UndecodedPs < 0 {
		return fmt.Errorf("decode: tracker state owes %d P-frames", st.UndecodedPs)
	}
	return nil
}

// Import overwrites the tracker's dependency state with an exported one,
// refusing one Validate rejects (the tracker is then unchanged). The cost
// model is the receiver's own and must match the donor's.
func (t *Tracker) Import(st TrackerState) error {
	if err := st.Validate(); err != nil {
		return err
	}
	t.undecodedI = st.UndecodedI
	t.undecodedPs = st.UndecodedPs
	t.nextRefPrepaid = st.NextRefPrepaid
	t.sawAny = st.SawAny
	return nil
}

// Reset returns the tracker to the fresh (no packet seen) state.
func (t *Tracker) Reset() {
	t.undecodedI = false
	t.undecodedPs = 0
	t.nextRefPrepaid = false
	t.sawAny = false
}
