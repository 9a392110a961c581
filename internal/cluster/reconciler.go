package cluster

import (
	"slices"
	"time"

	"packetgame/internal/overload"
)

// demandAlpha is the EWMA weight of the newest per-worker offered-cost
// sample in the demand estimate.
const demandAlpha = 0.3

// reconciler splits the global decode budget across workers proportional to
// observed demand and reconciles the per-worker AIMD governors into one
// cluster-level plan: each worker runs its own governor (fed that worker's
// observed round latency), and the cluster's effective budget is the
// demand-weighted sum of the per-worker effective budgets. The mode is the
// most degraded of any worker's — one overloaded worker brownouts the whole
// round, because the solve is global and a partial-mode round would not
// match any single-gate behavior.
//
// With no SLO configured the reconciler is a constant: (Budget, ModeFull)
// every round, exactly the plan a fixed-budget single gate runs — which is
// what keeps the oracle-equality property unconditional in ungoverned runs.
type reconciler struct {
	slo    time.Duration
	budget float64
	govs   map[int]*overload.Governor
	demand map[int]float64
}

func newReconciler(slo time.Duration, budget float64) *reconciler {
	return &reconciler{
		slo:    slo,
		budget: budget,
		govs:   make(map[int]*overload.Governor),
		demand: make(map[int]float64),
	}
}

// addWorker registers a worker's governor lazily.
func (rc *reconciler) addWorker(id int) error {
	if rc.slo == 0 {
		return nil
	}
	if _, ok := rc.govs[id]; ok {
		return nil
	}
	gov, err := overload.NewGovernor(overload.Config{SLO: rc.slo, Budget: rc.budget})
	if err != nil {
		return err
	}
	rc.govs[id] = gov
	return nil
}

// removeWorker drops a dead worker's governor and demand share.
func (rc *reconciler) removeWorker(id int) {
	delete(rc.govs, id)
	delete(rc.demand, id)
}

// exportCtl snapshots one worker's control state for the journal: the
// demand EWMA plus (under an SLO) the full AIMD governor state.
func (rc *reconciler) exportCtl(id int) workerCtl {
	ctl := workerCtl{ID: id}
	if d, ok := rc.demand[id]; ok {
		ctl.Demand = d
		ctl.HasDemand = true
	}
	if gov, ok := rc.govs[id]; ok {
		st := gov.Export()
		ctl.Gov = &st
	}
	return ctl
}

// importCtl restores one worker's journaled control state into a freshly
// elected coordinator. addWorker must already have registered the worker.
func (rc *reconciler) importCtl(ctl workerCtl) error {
	if ctl.HasDemand {
		rc.demand[ctl.ID] = ctl.Demand
	}
	if ctl.Gov != nil {
		if gov, ok := rc.govs[ctl.ID]; ok {
			return gov.Import(*ctl.Gov)
		}
	}
	return nil
}

// observeDemand folds one round's offered decode cost into the worker's
// demand estimate.
func (rc *reconciler) observeDemand(id int, offered float64) {
	if d, ok := rc.demand[id]; ok {
		rc.demand[id] = d + demandAlpha*(offered-d)
	} else {
		rc.demand[id] = offered
	}
}

// observeLatency feeds one worker's settled-round latency into its
// governor.
func (rc *reconciler) observeLatency(id int, lat time.Duration, depth int) {
	if gov, ok := rc.govs[id]; ok {
		gov.Observe(lat, depth)
	}
}

// plan returns the cluster's effective budget and degradation mode for the
// next round over the given live workers, which must be sorted by worker ID:
// float accumulation order is part of the determinism contract.
func (rc *reconciler) plan(live []int) (float64, overload.Mode) {
	if rc.slo == 0 {
		return rc.budget, overload.ModeFull
	}
	var total float64
	for _, id := range live {
		total += rc.demand[id]
	}
	var bEff float64
	mode := overload.ModeFull
	for _, id := range live {
		gov := rc.govs[id]
		if gov == nil {
			continue
		}
		bw, mw := gov.Plan()
		share := 1.0 / float64(len(live))
		if total > 0 {
			share = rc.demand[id] / total
		}
		bEff += share * bw
		mode = max(mode, mw)
	}
	bEff = min(bEff, rc.budget)
	if bEff == 0 {
		bEff = rc.budget
	}
	return bEff, mode
}

// p99 returns the 99th-percentile of the observed cluster round latencies
// (a round is as slow as the slowest worker that settled it).
func p99(lats []time.Duration) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	s := slices.Clone(lats)
	slices.Sort(s)
	return s[min((len(s)*99+99)/100, len(s)-1)]
}
