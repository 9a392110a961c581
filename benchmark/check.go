package main

import (
	"fmt"

	"packetgame/internal/infer"
)

// accounting is the benchmark's own ledger of what the system did with each
// round, kept from generator truth and the recorded selections. It yields
// the seed-deterministic end-to-end metrics (filter_rate, recall), the
// decision hash, and the cheap per-round invariants every run checks: a
// selection names only active streams and names each at most once. The
// traced run adds the budget and knapsack checks (trace.go).
type accounting struct {
	task    infer.Task
	emitted []infer.Result // what each stream's monitor currently emits
	started []bool
	prev    []infer.Result // the task's result on each stream's previous frame
	seen    []bool
	mark    []uint32 // round stamp of each stream's latest selection

	// Timed rounds only. A frame is necessary when the task's result on its
	// ground-truth scene differs from the result on the stream's previous
	// frame (the label dataset.Collect trains the predictor on): a property
	// of the input, independent of what the gate decoded before. A decode
	// is useful when it changed the stream's emitted result (the redundancy
	// feedback the engine itself hands the gate).
	rounds          int64
	packets         int64
	decoded         int64
	necessary       int64 // necessary frames
	necessaryCaught int64 // ... whose packet was decoded
	usefulDecodes   int64 // decodes that changed the emitted result

	// All rounds, warm-up included, so a hash covers the whole decision
	// history of a run.
	hash        uint64
	hashRounds  int
	markAt      int    // note the hash after this many rounds ...
	markHash    uint64 // ... here, for a shorter run of the seed to match
	failed      int64  // rounds with at least one violation
	firstFailed string
}

func newAccounting(m, markAt int) accounting {
	return accounting{
		task:    infer.PersonCounting{},
		emitted: make([]infer.Result, m),
		started: make([]bool, m),
		prev:    make([]infer.Result, m),
		seen:    make([]bool, m),
		mark:    make([]uint32, m),
		hash:    fnvOffset64,
		markAt:  markAt,
	}
}

func (a *accounting) violate(round int, format string, args ...any) {
	if a.firstFailed == "" {
		a.firstFailed = fmt.Sprintf("round %d: ", round) + fmt.Sprintf(format, args...)
	}
}

// settle folds one round in: sel is the system's selection for gr.
func (a *accounting) settle(round int, gr *genRound, sel []int32, timed bool) {
	stamp := uint32(round + 1)
	bad := false
	for _, i := range sel {
		switch {
		case i < 0 || int(i) >= len(a.mark) || gr.pos(i) < 0:
			a.violate(round, "selected stream %d is not active", i)
			bad = true
			continue
		case a.mark[i] == stamp:
			a.violate(round, "stream %d selected twice", i)
			bad = true
		}
		a.mark[i] = stamp
	}
	if bad {
		a.failed++
	}
	a.hash = foldSelection(a.hash, round, sel)
	a.hashRounds++
	if a.hashRounds == a.markAt {
		a.markHash = a.hash
	}
	if timed {
		a.rounds++
		a.packets += int64(len(gr.ids))
		a.decoded += int64(len(sel))
	}
	for k, id := range gr.ids {
		cur := a.task.ResultOf(gr.truth[k])
		necessary := !a.seen[id] || a.task.Necessary(a.prev[id], cur)
		a.prev[id], a.seen[id] = cur, true
		selected := a.mark[id] == stamp
		if timed && necessary {
			a.necessary++
			if selected {
				a.necessaryCaught++
			}
		}
		if selected {
			if timed && (!a.started[id] || a.task.Necessary(a.emitted[id], cur)) {
				a.usefulDecodes++
			}
			a.emitted[id], a.started[id] = cur, true
		}
	}
}

func (a *accounting) filterRate() float64 { return 1 - ratio(float64(a.decoded), float64(a.packets)) }
func (a *accounting) recall() float64 {
	return ratio(float64(a.necessaryCaught), float64(a.necessary))
}
