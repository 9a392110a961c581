package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/dataset"
	"packetgame/internal/decode"
	"packetgame/internal/fault"
	"packetgame/internal/infer"
	"packetgame/internal/metrics"
	"packetgame/internal/overload"
	"packetgame/internal/predictor"
)

// overloadSLO is the soak's per-round latency objective, matching the
// README quickstart (`pggate -slo 50ms`).
const overloadSLO = 50 * time.Millisecond

// Overload is the overload-governor soak: a compressed Campus1K diurnal day
// with the chaos fault profile layered on top, replayed three times over
// the same seed — once ungoverned (the unloaded baseline), twice governed
// (the second run checks bit-identical shed/brownout decisions).
//
// The latency model is virtual and deterministic: each round's selected
// decode cost feeds a single-server backlog whose capacity follows the
// same diurnal curve as the content (a shared cluster is busiest exactly
// when the cameras are), plus seeded latency spikes and — at scale ≥ 0.5 —
// one sustained mid-peak capacity collapse that forces the degradation
// ladder to engage. Round latency is backlog/capacity in units of the SLO,
// so the governor's AIMD loop sees exactly the pressure the gate creates.
//
// Asserted invariants (the experiment errors if they fail):
//   - governed p99 round latency ≤ SLO while the ungoverned run misses the
//     SLO in ≥ 20% of peak rounds;
//   - top-tier (FD) recall of the governed run stays within tolerance of
//     the unloaded run (2% at scale ≥ 0.5);
//   - two same-seed governed soaks make bit-identical gating, shed, and
//     brownout decisions.
//
// At full scale the results are written to BENCH_overload.json with the
// ungoverned baseline alongside the governed numbers.
func Overload(o Options) error {
	o = o.withDefaults()
	m := o.scaled(256, 64)
	rounds := o.scaled(1500, 300)
	budget := 3 + float64(m)/8
	// Sweep exactly one 24h diurnal cycle over the run, whatever the scale.
	timeCompress := 24 * 3600 * 25 / float64(rounds)
	withIncident := o.Scale >= 0.5

	chaosProf, err := fault.ParseProfile("chaos", o.Seed)
	if err != nil {
		return err
	}

	o.printf("=== Overload soak: diurnal Campus1K + chaos faults (m=%d, budget=%.1f, %d rounds, SLO %v) ===\n\n",
		m, budget, rounds, overloadSLO)

	// The contextual predictor is what keeps top-tier recall alive under
	// rationing: a fire onset spikes the packet-size signal, so a burning
	// stream scores high the round it ignites instead of waiting for the
	// UCB rotation to revisit it. Trained once on the FD corpus and shared
	// (frozen) by every leg, so legs stay comparable and deterministic.
	setup, err := newOnlineSetup(o, infer.FireDetection{})
	if err != nil {
		return err
	}

	params := soakParams{
		m: m, rounds: rounds, budget: budget, timeCompress: timeCompress,
		chaos: chaosProf, pred: setup.pg, incident: withIncident,
	}
	offParams, govParams := params, params
	govParams.governed = true
	off, err := soakOnce(o, offParams)
	if err != nil {
		return err
	}
	gov, err := soakOnce(o, govParams)
	if err != nil {
		return err
	}
	gov2, err := soakOnce(o, govParams)
	if err != nil {
		return err
	}

	o.printf("%-14s %9s %9s %8s %10s %8s %9s %7s %7s\n",
		"run", "p99", "max", "misses", "peak-miss", "decoded", "fd-recall", "shed", "B_eff")
	for _, leg := range []struct {
		name string
		r    soakResult
	}{{"governor-off", off}, {"governed", gov}} {
		o.printf("%-14s %9s %9s %8d %9.1f%% %8d %9.3f %7d %7.1f\n",
			leg.name, fmtMs(leg.r.p99), fmtMs(leg.r.max), leg.r.sloMisses,
			100*leg.r.peakMissFraction(), leg.r.decoded, leg.r.fdRecall,
			leg.r.stats.Shed, leg.r.bEffFinal)
	}
	o.printf("\ngoverned ladder: cuts=%d raises=%d stepDowns=%d stepUps=%d modeRounds=%v (full,temporal,keyframe,shed)\n",
		gov.stats.Cuts, gov.stats.Raises, gov.stats.StepDowns, gov.stats.StepUps, gov.stats.ModeRounds)
	if withIncident {
		o.printf("incident: capacity collapse injected mid-morning-peak (scale ≥ 0.5)\n")
	}

	// Assertion 1: the governor holds p99 within the SLO; ungoverned peak
	// rounds miss in bulk.
	if gov.p99 > overloadSLO {
		return fmt.Errorf("overload: governed p99 %v exceeds SLO %v", gov.p99, overloadSLO)
	}
	if off.peakRounds == 0 {
		return fmt.Errorf("overload: diurnal model produced no peak rounds")
	}
	if frac := off.peakMissFraction(); frac < 0.20 {
		return fmt.Errorf("overload: ungoverned baseline missed only %.1f%% of peak rounds, want ≥ 20%%", 100*frac)
	}

	// Assertion 2: top-tier recall survives governance. The ungoverned run
	// decodes at full budget throughout, so it doubles as the unloaded
	// baseline. Small scales have few fire events, so the bound loosens.
	fdTol := 0.02
	if o.Scale < 0.5 {
		fdTol = 0.05
	}
	if gov.fdPosRounds == 0 {
		return fmt.Errorf("overload: no fire-positive rounds; FD recall unmeasurable")
	}
	if d := gov.fdRecall - off.fdRecall; d < -fdTol || d > fdTol {
		return fmt.Errorf("overload: governed FD recall %.3f drifted beyond ±%.2f of unloaded %.3f",
			gov.fdRecall, fdTol, off.fdRecall)
	}

	// Assertion 3: same-seed governed soaks are bit-identical — gating
	// decisions, latency trajectory, and every shed/brownout counter.
	deterministic := gov.stats == gov2.stats && gov.govSnap == gov2.govSnap &&
		len(gov.decisions) == len(gov2.decisions) && len(gov.latencies) == len(gov2.latencies)
	if deterministic {
	outer:
		for r := range gov.decisions {
			if gov.latencies[r] != gov2.latencies[r] || len(gov.decisions[r]) != len(gov2.decisions[r]) {
				deterministic = false
				break
			}
			for k := range gov.decisions[r] {
				if gov.decisions[r][k] != gov2.decisions[r][k] {
					deterministic = false
					break outer
				}
			}
		}
	}
	o.printf("determinism (seed %d): governed decisions, latencies, and ladder counters identical: %v\n",
		o.Seed, deterministic)
	if !deterministic {
		return fmt.Errorf("overload: same-seed governed soaks diverged")
	}

	if o.Scale >= 1 {
		rep := overloadReport{
			Meta: benchMeta("overload"),
			M:    m, Rounds: rounds, SLOMs: float64(overloadSLO) / 1e6,
			Budget: budget, Seed: o.Seed, Chaos: chaosProf.Name,
			Incident: withIncident, DeterminismOK: deterministic,
			Governed:    gov.toLeg(true),
			GovernorOff: off.toLeg(false),
		}
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile("BENCH_overload.json", append(buf, '\n'), 0o644); err != nil {
			return err
		}
		o.printf("\nwrote BENCH_overload.json\n")
	} else {
		o.printf("\n(scale %.2f < 1: BENCH_overload.json not written)\n", o.Scale)
	}
	return nil
}

// soakParams configures one soak leg.
type soakParams struct {
	m, rounds    int
	budget       float64
	timeCompress float64
	chaos        fault.Profile
	pred         *predictor.Predictor
	governed     bool
	incident     bool
}

// soakResult is one leg's full outcome.
type soakResult struct {
	latencies  []time.Duration
	decisions  [][]int
	p99, max   time.Duration
	sloMisses  int
	peakRounds int
	peakMisses int
	decoded    int64
	failed     int64

	fdPosRounds, fdPosCorrect int64
	fdRecall                  float64

	stats     metrics.OverloadSnapshot
	govSnap   overload.Snapshot
	bEffFinal float64
}

func (r soakResult) peakMissFraction() float64 {
	if r.peakRounds == 0 {
		return 0
	}
	return float64(r.peakMisses) / float64(r.peakRounds)
}

func (r soakResult) toLeg(governed bool) overloadLeg {
	return overloadLeg{
		Governed:         governed,
		P99Ms:            float64(r.p99) / 1e6,
		MaxMs:            float64(r.max) / 1e6,
		SLOMissRounds:    r.sloMisses,
		PeakRounds:       r.peakRounds,
		PeakMissRounds:   r.peakMisses,
		PeakMissFraction: r.peakMissFraction(),
		Decoded:          r.decoded,
		DecodeFailed:     r.failed,
		FDRecall:         r.fdRecall,
		Shed:             r.stats.Shed,
		Cuts:             r.stats.Cuts,
		Raises:           r.stats.Raises,
		StepDowns:        r.stats.StepDowns,
		StepUps:          r.stats.StepUps,
		BEffFinal:        r.bEffFinal,
		ModeRounds:       r.stats.ModeRounds,
	}
}

// soakTier maps stream i to its priority tier, a deployment pyramid: 12.5%
// fire detection (tier 0), 25% anomaly detection, 37.5% person counting,
// 25% super-resolution. Keeping the top tier thin is what makes strict
// priority meaningful — tier 0 stays fully servable even at a deeply cut
// effective budget.
func soakTier(i int) uint8 {
	switch i % 8 {
	case 0:
		return 0
	case 1, 5:
		return 1
	case 2, 4, 6:
		return 2
	default:
		return 3
	}
}

// soakFleet builds the compressed-diurnal campus fleet with the top tier
// (stream i, i%8 == 0) re-homed to fire-capable cameras so FD recall is
// measured against real positives. Fire rate and duration are scaled so the
// run sees a comparable event mix at any scale.
func soakFleet(o Options, m, rounds int, timeCompress float64) []*codec.Stream {
	streams := dataset.Campus1K(dataset.Campus1KConfig{
		Cameras: m, Seed: o.Seed + 500, TimeCompress: timeCompress,
	})
	fireRate := 90.0 * 1500 / float64(rounds) // ≈1.5 ignitions per stream per run
	fireDur := 6.0 * float64(rounds) / 1500   // ≈150 frames at full scale
	for i := 0; i < m; i += 8 {
		streams[i] = codec.NewStream(codec.SceneConfig{
			Diurnal:      true,
			TimeCompress: timeCompress,
			BaseActivity: 0.3,
			Richness:     0.6,
			PersonRate:   0.2,
			FireRate:     fireRate,
			FireDuration: fireDur,
		}, codec.EncoderConfig{StreamID: i, Codec: codec.H265, GOPSize: 25, GOPPhase: i * 7},
			o.Seed+500+int64(i)*7919)
	}
	return streams
}

// soakOnce replays one full diurnal cycle. Every source of variation is
// seeded — fault draws, spike draws, stream content — and the latency model
// is pure arithmetic, so two legs with equal params produce bit-identical
// trajectories.
func soakOnce(o Options, p soakParams) (soakResult, error) {
	inj := fault.NewInjector(p.chaos)
	wrapped := inj.WrapFleet(soakFleet(o, p.m, p.rounds, p.timeCompress))

	tiers := make([]uint8, p.m)
	tasks := []infer.Task{infer.FireDetection{}, infer.AnomalyDetection{},
		infer.PersonCounting{}, infer.SuperResolution{}}
	monitors := make([]*infer.Monitor, p.m)
	for i := range tiers {
		tiers[i] = soakTier(i)
		monitors[i] = infer.NewMonitor(tasks[tiers[i]])
	}

	stats := &metrics.OverloadStats{}
	var gov *overload.Governor
	var err error
	if p.governed {
		gov, err = overload.NewGovernor(overload.Config{
			SLO:    overloadSLO,
			Budget: p.budget,
			// A floor of budget/8 (vs the default /16) keeps the thin top
			// tier fully servable even through the incident's deepest cuts.
			MinBudget: p.budget / 8,
			// Raise the raise-gate so the AIMD equilibrium sits at ~72%
			// utilization: still a comfortable guard-band below the 85%
			// cut threshold, but less recall sacrificed to headroom.
			Headroom:       0.72,
			EnterAfter:     5,
			ExitAfter:      16,
			SaturatedDepth: 4,
			Stats:          stats,
		})
		if err != nil {
			return soakResult{}, err
		}
	}
	g, err := core.NewGate(core.Config{
		Streams: p.m, Budget: p.budget, UseTemporal: true, Predictor: p.pred,
		Priorities: tiers, Governor: gov, Overload: stats,
		Breaker: &core.BreakerConfig{FailureThreshold: 3, Cooldown: 20, GapThreshold: 60},
	})
	if err != nil {
		return soakResult{}, err
	}
	dec := inj.WrapDecoder(decode.NewDecoder(decode.DefaultCosts))
	spikes := rand.New(rand.NewSource(o.Seed + 9091))

	// Virtual service model: capacity (decode units per round) dips with
	// the same diurnal curve driving the cameras; the backlog integrates
	// selected cost over capacity and round latency is utilization in SLO
	// units. An incident collapses capacity for a stretch of the morning
	// peak to force the ladder.
	capBase := 1.8 * p.budget
	incidentStart := int(0.35 * float64(p.rounds))
	incidentLen := 24
	var backlog float64

	res := soakResult{
		latencies: make([]time.Duration, 0, p.rounds),
		decisions: make([][]int, 0, p.rounds),
	}
	pkts := make([]*codec.Packet, p.m)
	truth := make([]codec.Scene, p.m)
	isSel := make([]bool, p.m)
	var rnd codec.Round

	for r := 0; r < p.rounds; r++ {
		for i, w := range wrapped {
			pkts[i] = w.Next()
			t, _ := w.Truth()
			truth[i] = t
		}
		rnd.FromDense(pkts)
		sel, err := g.DecideSparseAppend(&rnd, nil)
		if err != nil {
			return soakResult{}, fmt.Errorf("overload: round %d: %w", r, err)
		}
		for i := range isSel {
			isSel[i] = false
		}
		necessary := make([]bool, len(sel))
		var failed []bool
		arrival := 0.0
		for k, i := range sel {
			isSel[i] = true
			arrival += decode.DefaultCosts.Of(pkts[i].Type)
			frame, err := dec.Decode(pkts[i])
			if err != nil {
				if failed == nil {
					failed = make([]bool, len(sel))
				}
				failed[k] = true
				necessary[k] = true // conservative: budget spent, nothing seen
				res.failed++
				monitors[i].ObserveSkipped(truth[i])
				continue
			}
			necessary[k] = monitors[i].ObserveDecoded(truth[i], frame.Scene)
			res.decoded++
		}
		for i := range wrapped {
			if !isSel[i] {
				monitors[i].ObserveSkipped(truth[i])
			}
		}

		hour := 24 * float64(r) / float64(p.rounds)
		act := codec.DiurnalActivity(hour)
		capNow := capBase * (1.15 - 0.72*act)
		if p.incident && r >= incidentStart && r < incidentStart+incidentLen {
			capNow *= 0.25
		}
		backlog += arrival
		spike := 0.0
		if spikes.Float64() < 0.02 {
			spike = (2 + 6*spikes.Float64()) * float64(time.Millisecond)
		}
		lat := time.Duration(backlog/capNow*float64(overloadSLO) + spike)
		if backlog > capNow {
			backlog -= capNow
		} else {
			backlog = 0
		}
		depth := int(backlog * 4 / capNow)
		if gov != nil {
			gov.Observe(lat, depth)
		}

		res.latencies = append(res.latencies, lat)
		res.decisions = append(res.decisions, append([]int(nil), sel...))
		if lat > overloadSLO {
			res.sloMisses++
		}
		if act >= 0.7 {
			res.peakRounds++
			if lat > overloadSLO {
				res.peakMisses++
			}
		}
		if err := g.FeedbackFull(sel, necessary, failed, nil); err != nil {
			return soakResult{}, fmt.Errorf("overload: round %d feedback: %w", r, err)
		}
	}

	for i := 0; i < p.m; i += 8 {
		_, _, pr, pc := monitors[i].ClassStats()
		res.fdPosRounds += pr
		res.fdPosCorrect += pc
	}
	res.fdRecall = 1
	if res.fdPosRounds > 0 {
		res.fdRecall = float64(res.fdPosCorrect) / float64(res.fdPosRounds)
	}

	sorted := append([]time.Duration(nil), res.latencies...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	res.p99 = sorted[(len(sorted)*99+99)/100-1]
	res.max = sorted[len(sorted)-1]
	res.stats = stats.Snapshot()
	if gov != nil {
		res.govSnap = gov.Snapshot()
		res.bEffFinal = res.govSnap.BEff
	} else {
		res.bEffFinal = p.budget
	}
	return res, nil
}

func fmtMs(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d)/1e6)
}

type overloadLeg struct {
	Governed         bool     `json:"governed"`
	P99Ms            float64  `json:"p99_ms"`
	MaxMs            float64  `json:"max_ms"`
	SLOMissRounds    int      `json:"slo_miss_rounds"`
	PeakRounds       int      `json:"peak_rounds"`
	PeakMissRounds   int      `json:"peak_miss_rounds"`
	PeakMissFraction float64  `json:"peak_miss_fraction"`
	Decoded          int64    `json:"decoded"`
	DecodeFailed     int64    `json:"decode_failed"`
	FDRecall         float64  `json:"fd_recall"`
	Shed             int64    `json:"shed"`
	Cuts             int64    `json:"cuts"`
	Raises           int64    `json:"raises"`
	StepDowns        int64    `json:"step_downs"`
	StepUps          int64    `json:"step_ups"`
	BEffFinal        float64  `json:"b_eff_final"`
	ModeRounds       [4]int64 `json:"mode_rounds"`
}

type overloadReport struct {
	Meta          BenchMeta   `json:"meta"`
	M             int         `json:"m"`
	Rounds        int         `json:"rounds"`
	SLOMs         float64     `json:"slo_ms"`
	Budget        float64     `json:"budget"`
	Seed          int64       `json:"seed"`
	Chaos         string      `json:"chaos_profile"`
	Incident      bool        `json:"incident"`
	DeterminismOK bool        `json:"determinism_ok"`
	Governed      overloadLeg `json:"governed"`
	GovernorOff   overloadLeg `json:"governor_off"`
}
