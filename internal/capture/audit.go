package capture

import (
	"fmt"
	"io"
	"sort"

	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/overload"
	"packetgame/internal/trace"
)

// AuditOptions parameterizes a determinism audit.
type AuditOptions struct {
	// Verbose, when non-nil, receives a line per divergent round (capped
	// at MaxReport).
	Verbose io.Writer
	// MaxReport caps the verbose divergence lines (default 10).
	MaxReport int
}

// AuditResult summarizes a determinism audit.
type AuditResult struct {
	// Rounds is the number of audited rounds (paired packet rounds and
	// decision records).
	Rounds int
	// Divergent counts rounds whose selected set differed from the
	// recorded decision trace.
	Divergent int
	// FirstDivergence is the first divergent round index, or -1.
	FirstDivergence int
	// ExtraRounds / ExtraDecisions count unpaired records (a pipelined or
	// cut-short recording can leave a tail of undecided packets).
	ExtraRounds    int
	ExtraDecisions int
}

// Ok reports whether the audit found the replay bit-identical.
func (r AuditResult) Ok() bool { return r.Divergent == 0 && r.ExtraDecisions == 0 }

// Audit replays a capture's packets through a freshly built gate and diffs
// every round's selected set against the capture's recorded decision trace.
// The gate is reconstructed from the capture's GateMeta; each round's
// effective budget and degradation mode are pinned from the recorded trace
// (overload.Scripted), and the recorded feedback verdicts are fed back, so
// the only free variable is the gate's decision logic itself. Any
// divergence means a behavior change in the gate — exactly what a
// regression audit should fail loudly on.
func Audit(c *Capture, opts AuditOptions) (AuditResult, error) {
	res := AuditResult{FirstDivergence: -1}
	if opts.MaxReport == 0 {
		opts.MaxReport = 10
	}
	gm := c.Meta.Gate
	if gm == nil {
		return res, fmt.Errorf("capture: no gate metadata recorded; this capture cannot be audited")
	}
	if len(c.Decisions) == 0 {
		return res, fmt.Errorf("capture: no decision trace recorded")
	}
	planner := overload.NewScripted(gm.Budget)
	cfg, err := configFromMeta(c.Meta)
	if err != nil {
		return res, err
	}
	cfg.Planner = planner
	gate, err := core.NewGate(cfg)
	if err != nil {
		return res, fmt.Errorf("capture: rebuilding recorded gate: %w", err)
	}

	n := len(c.Rounds)
	if len(c.Decisions) < n {
		n = len(c.Decisions)
	}
	res.ExtraRounds = len(c.Rounds) - n
	res.ExtraDecisions = len(c.Decisions) - n

	var rnd codec.Round
	var sel []int
	for i := 0; i < n; i++ {
		rec := c.Decisions[i]
		mode, err := overload.ParseMode(rec.Mode)
		if err != nil {
			return res, fmt.Errorf("capture: decision %d: %w", i, err)
		}
		planner.Set(rec.Budget, mode)
		rnd.FromDense(c.Rounds[i].Pkts)
		sel, err = gate.DecideSparseAppend(&rnd, sel[:0])
		if err != nil {
			return res, fmt.Errorf("capture: replaying round %d: %w", i, err)
		}
		res.Rounds++

		// Diff the selected set against the recorded one.
		recorded := map[int]trace.Decision{}
		var recSel []int
		for _, d := range rec.Decisions {
			if d.Selected {
				recorded[d.Stream] = d
				recSel = append(recSel, d.Stream)
			}
		}
		if !sameSet(sel, recSel) {
			if res.Divergent == 0 {
				res.FirstDivergence = i
			}
			res.Divergent++
			if opts.Verbose != nil && res.Divergent <= opts.MaxReport {
				fmt.Fprintf(opts.Verbose, "round %d: replay selected %v, recorded %v (B_eff %.3f, mode %s)\n",
					i, sorted(sel), sorted(recSel), rec.Budget, rec.Mode)
			}
		}

		// Feed back the recorded verdicts so the estimator state follows
		// the recorded trajectory. Slots the recording never selected have
		// no verdict; they only occur on divergent rounds, where the audit
		// has already failed — false keeps the replay well-defined.
		necessary := make([]bool, len(sel))
		failed := make([]bool, len(sel))
		deferred := make([]bool, len(sel))
		for k, s := range sel {
			if d, ok := recorded[s]; ok {
				necessary[k] = d.Necessary
				failed[k] = d.Failed
				deferred[k] = d.Deferred
			}
		}
		if err := gate.FeedbackFull(sel, necessary, failed, deferred); err != nil {
			return res, fmt.Errorf("capture: feedback for round %d: %w", i, err)
		}
	}
	return res, nil
}

func sorted(s []int) []int {
	out := append([]int(nil), s...)
	sort.Ints(out)
	return out
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}
