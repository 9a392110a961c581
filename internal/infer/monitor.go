package infer

import "packetgame/internal/codec"

// Monitor tracks the emitted (possibly stale) inference result of one stream
// under gating, producing redundancy feedback for decoded frames and
// accuracy samples against ground truth.
//
// When a packet is gated away, the stream's previously emitted result stands;
// the round counts as accurate only if that stale result still matches the
// ground-truth result of the live scene. Rounds are additionally split by
// the ground truth's event class (Task.Positive) so balanced accuracy can
// weigh rare events properly: a policy that never decodes scores ~0.5
// balanced accuracy on a rare-event task instead of ~1.0 plain accuracy.
type Monitor struct {
	task    Task
	emitted Result
	started bool
	idx     int32 // position in fleet's array

	rounds  [2]int64 // [negative, positive] ground-truth rounds
	correct [2]int64
	decoded int64
	reward  int64 // decoded frames that were necessary

	// fleet is the fleet whose class totals this monitor keeps current (nil
	// for a stand-alone monitor). Only the monitor at fleet.monitors[idx]
	// moves them: a copied Monitor value is on its own.
	fleet *Fleet
}

// NewMonitor creates a monitor for one stream running the given task.
func NewMonitor(task Task) *Monitor { return &Monitor{task: task} }

// Task returns the monitored task.
func (m *Monitor) Task() Task { return m.task }

// ObserveDecoded folds in a round whose packet was decoded and inferred.
// truth is the ground-truth scene of the round (used for accuracy);
// observed is the scene recovered by the decoder (normally identical).
// It returns the redundancy feedback: true if the inference was necessary.
func (m *Monitor) ObserveDecoded(truth, observed codec.Scene) bool {
	cur := m.task.ResultOf(observed)
	necessary := m.task.Necessary(m.emitted, cur) || !m.started
	m.emitted = cur
	m.started = true
	m.decoded++
	if necessary {
		m.reward++
	}
	m.score(truth)
	return necessary
}

// ObserveSkipped folds in a round whose packet was gated away.
func (m *Monitor) ObserveSkipped(truth codec.Scene) {
	m.score(truth)
}

func (m *Monitor) score(truth codec.Scene) {
	want := m.task.ResultOf(truth)
	cls := 0
	if m.task.Positive(want) {
		cls = 1
	}
	m.rounds[cls]++
	ok := false
	if m.started {
		ok = m.task.Same(m.emitted, want)
	} else {
		// Nothing emitted yet; the zero result is correct only if the
		// ground truth is the zero result too.
		ok = m.task.Same(Result{}, want)
	}
	if ok {
		m.correct[cls]++
	}
	if f := m.owner(); f != nil {
		f.class[2*cls]++
		if ok {
			f.class[2*cls+1]++
		}
	}
}

// owner returns the fleet whose totals m keeps, or nil for a stand-alone
// monitor or a copy of a fleet's.
func (m *Monitor) owner() *Fleet {
	if f := m.fleet; f != nil && &f.monitors[m.idx] == m {
		return f
	}
	return nil
}

// addTotals adds sign times m's class counters to its owner's totals.
func (m *Monitor) addTotals(sign int64) {
	if f := m.owner(); f != nil {
		f.class[0] += sign * m.rounds[0]
		f.class[1] += sign * m.correct[0]
		f.class[2] += sign * m.rounds[1]
		f.class[3] += sign * m.correct[1]
	}
}

// Emitted returns the currently emitted result.
func (m *Monitor) Emitted() (Result, bool) { return m.emitted, m.started }

// Accuracy returns the fraction of rounds whose emitted result matched
// ground truth.
func (m *Monitor) Accuracy() float64 {
	total := m.rounds[0] + m.rounds[1]
	if total == 0 {
		return 1
	}
	return float64(m.correct[0]+m.correct[1]) / float64(total)
}

// BalancedAccuracy is the mean of the per-class accuracies over the classes
// that occurred: nr rounds of negative ground truth (nc of them correct) and
// pr positive (pc correct). ok is false when neither class occurred; each
// caller decides what that reads as.
func BalancedAccuracy(nr, nc, pr, pc int64) (v float64, ok bool) {
	var sum float64
	n := 0
	if nr > 0 {
		sum += float64(nc) / float64(nr)
		n++
	}
	if pr > 0 {
		sum += float64(pc) / float64(pr)
		n++
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// BalancedAccuracy averages the per-class accuracies, counting only classes
// the stream actually exhibited (1 before any round).
func (m *Monitor) BalancedAccuracy() float64 {
	if v, ok := BalancedAccuracy(m.ClassStats()); ok {
		return v
	}
	return 1
}

// Stats returns the raw counters: observed rounds, accurate rounds, decoded
// frames, and necessary decodes.
func (m *Monitor) Stats() (rounds, correct, decoded, necessary int64) {
	return m.rounds[0] + m.rounds[1], m.correct[0] + m.correct[1], m.decoded, m.reward
}

// ClassStats returns the per-class counters: (negRounds, negCorrect,
// posRounds, posCorrect).
func (m *Monitor) ClassStats() (nr, nc, pr, pc int64) {
	return m.rounds[0], m.correct[0], m.rounds[1], m.correct[1]
}

// Fleet is a set of per-stream monitors for one task: one flat array of
// values, reachable one at a time through Stream. The monitors keep the
// fleet's class totals current as they score, import and reset, so
// ClassTotals is O(1).
type Fleet struct {
	monitors []Monitor
	class    [4]int64 // negRounds, negCorrect, posRounds, posCorrect
}

// NewFleet creates m monitors.
func NewFleet(task Task, m int) *Fleet {
	return NewFleetOf([]Task{task}, m)
}

// NewFleetOf creates m monitors with per-stream tasks: stream i runs
// tasks[i mod len(tasks)] — a mixed deployment where co-located models with
// different priorities share one gate. tasks must be non-empty.
func NewFleetOf(tasks []Task, m int) *Fleet {
	f := &Fleet{monitors: make([]Monitor, m)}
	for i := range f.monitors {
		f.monitors[i] = Monitor{task: tasks[i%len(tasks)], idx: int32(i), fleet: f}
	}
	return f
}

// Stream returns stream i's monitor.
func (f *Fleet) Stream(i int) *Monitor { return &f.monitors[i] }

// Len returns the number of streams.
func (f *Fleet) Len() int { return len(f.monitors) }

// Accuracy returns the mean plain accuracy across streams.
func (f *Fleet) Accuracy() float64 {
	if len(f.monitors) == 0 {
		return 1
	}
	var sum float64
	for i := range f.monitors {
		sum += f.monitors[i].Accuracy()
	}
	return sum / float64(len(f.monitors))
}

// BalancedAccuracy pools the class counters across the fleet and averages
// the two class accuracies (1 before any round).
func (f *Fleet) BalancedAccuracy() float64 {
	if v, ok := BalancedAccuracy(f.ClassTotals()); ok {
		return v
	}
	return 1
}

// Totals aggregates raw counters across streams.
func (f *Fleet) Totals() (rounds, correct, decoded, necessary int64) {
	for i := range f.monitors {
		r, c, d, n := f.monitors[i].Stats()
		rounds += r
		correct += c
		decoded += d
		necessary += n
	}
	return
}

// ClassTotals returns the class-split counters summed across streams.
func (f *Fleet) ClassTotals() (nr, nc, pr, pc int64) {
	return f.class[0], f.class[1], f.class[2], f.class[3]
}
