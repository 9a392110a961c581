package infer

import "fmt"

// MonitorState is one stream's portable inference-monitor state. The emitted
// result and started flag are load-bearing for gating decisions — redundancy
// feedback ("was this inference necessary?") compares against the previously
// emitted result — so a migrating stream must carry them or its post-
// migration feedback diverges from a monitor that saw the whole history. The
// accuracy counters ride along so recall accounting follows the stream to
// its new owner instead of being double- or under-counted.
type MonitorState struct {
	Emitted Result
	Started bool

	NegRounds  int64
	NegCorrect int64
	PosRounds  int64
	PosCorrect int64
	Decoded    int64
	Reward     int64
}

// Export extracts the monitor's state. The monitor is unchanged.
func (m *Monitor) Export() MonitorState {
	return MonitorState{
		Emitted:    m.emitted,
		Started:    m.started,
		NegRounds:  m.rounds[0],
		NegCorrect: m.correct[0],
		PosRounds:  m.rounds[1],
		PosCorrect: m.correct[1],
		Decoded:    m.decoded,
		Reward:     m.reward,
	}
}

// Validate refuses counters no monitor could have kept: a negative count,
// more correct rounds of a class than rounds of it, or more necessary
// decodes than decodes.
func (st MonitorState) Validate() error {
	if min(st.NegCorrect, st.PosCorrect, st.Reward) < 0 ||
		st.NegCorrect > st.NegRounds || st.PosCorrect > st.PosRounds || st.Reward > st.Decoded {
		return fmt.Errorf("infer: malformed monitor state %+v", st)
	}
	return nil
}

// Import overwrites the monitor's state with an exported one that passes
// Validate. The task is the receiver's own and must match the donor's.
func (m *Monitor) Import(st MonitorState) error {
	if err := st.Validate(); err != nil {
		return err
	}
	m.addTotals(-1)
	m.emitted = st.Emitted
	m.started = st.Started
	m.rounds[0] = st.NegRounds
	m.correct[0] = st.NegCorrect
	m.rounds[1] = st.PosRounds
	m.correct[1] = st.PosCorrect
	m.decoded = st.Decoded
	m.reward = st.Reward
	m.addTotals(1)
	return nil
}

// Reset returns the monitor to the fresh (nothing emitted) state.
func (m *Monitor) Reset() {
	m.addTotals(-1)
	m.emitted = Result{}
	m.started = false
	m.rounds = [2]int64{}
	m.correct = [2]int64{}
	m.decoded = 0
	m.reward = 0
}
