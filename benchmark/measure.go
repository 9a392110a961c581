package main

import (
	"fmt"
	"runtime"
	"time"
)

// system is one built-and-warmed-up workload instance. Building it is what
// setup_s times; run measures it; close tears it down.
type system interface {
	// run measures the timed blocks the system was built for.
	run() error
	// outcome collects the readings; valid once after run.
	outcome() *outcome
	close()
}

// build sets a workload up for `blocks` timed blocks. mark is the round
// count (warm-up included) at which the run notes its decision hash and
// input digest, so a shorter run of the same seed can be held against it.
func build(spec workloadSpec, seed int64, traced bool, blocks, mark int) (system, error) {
	switch spec.kind {
	case kindReplay:
		return newReplayRig(spec, seed, traced, blocks, mark)
	case kindCluster:
		return newClusterRig(spec, seed, traced, blocks, mark)
	default:
		return newRig(spec, seed, traced, blocks, mark)
	}
}

// outcome is everything one run of one workload produced.
type outcome struct {
	p      *probe
	br     bracket
	digest uint64 // over every generated round
	// markDigest is the digest after the first `mark` rounds (see build).
	markDigest uint64
	genMs      float64
	heapMB     float64
	layer      map[string]reading // workload-specific per-layer readings
	notes      []string
	// failAll marks every round failed (a replay whose span drifted).
	failAll bool
	// Traced runs only.
	tr       *tracer
	pipeWall time.Duration // timed wall of the engine the tracer sat on, when that is not the system under test (the cluster oracle)
	stages   stageReadings
	inc      incReadings
	flops    int64
}

// reading is a value and the number of samples behind it.
type reading struct {
	v float64
	n int64
}

type stageReadings struct {
	gateMs, decodeMs, inferMs float64
	maxDepth                  int64
}

type incReadings struct{ scored, forwards, hits int64 }

// metricValue is one reported reading. Every latency the benchmark reports
// is measured wall clock, and says so.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int64   `json:"samples,omitempty"`
	Kind    string  `json:"kind,omitempty"`
}

// workloadReport is one workload's section of the report file.
type workloadReport struct {
	Workload     string                 `json:"workload"`
	Seed         int64                  `json:"seed"`
	Why          string                 `json:"why"`
	Streams      int                    `json:"streams"`
	Active       int                    `json:"active_per_round"`
	Budget       float64                `json:"budget"`
	Rounds       int64                  `json:"rounds"`
	Attempted    int64                  `json:"attempted"`
	Failed       int64                  `json:"failed"`
	Correct      bool                   `json:"correct"`
	DecisionHash string                 `json:"decision_hash"`
	InputDigest  string                 `json:"input_digest"`
	WallS        float64                `json:"wall_s"`
	EndToEnd     map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer     map[string]metricValue `json:"per_layer,omitempty"`
	Notes        []string               `json:"notes,omitempty"`
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

func isLatency(unit string) bool { return unit == "ms" || unit == "ns" || unit == "s" }

func put(m map[string]metricValue, defs []metricDef, name string, v float64, samples int64) {
	mv := metricValue{Value: v, Unit: unitOf(defs, name), Samples: samples}
	if isLatency(mv.Unit) {
		mv.Kind = "measured"
	}
	m[name] = mv
}

// failures returns (attempted, failed) rounds of a run.
func (o *outcome) failures() (int64, int64) {
	attempted := o.p.acct.rounds
	if attempted < 1 {
		attempted = 1
	}
	failed := o.p.acct.failed + o.p.errs.Load()
	if o.tr != nil {
		failed += o.tr.failed
	}
	if o.failAll || failed > attempted {
		failed = attempted
	}
	return attempted, failed
}

func (o *outcome) failureNotes() []string {
	notes := append([]string(nil), o.notes...)
	if err, _ := o.p.firstErr.Load().(error); err != nil {
		notes = append(notes, "first error: "+err.Error())
	}
	if s := o.p.acct.firstFailed; s != "" {
		notes = append(notes, "first violation: "+s)
	}
	if o.tr != nil && o.tr.firstFailed != "" {
		notes = append(notes, "first checked-run violation: "+o.tr.firstFailed)
	}
	return notes
}

// endToEndMetrics reads the metrics off the whole timed run: totals over
// every timed block, quantiles pooled over every timed round.
func endToEndMetrics(o *outcome, setupS float64) map[string]metricValue {
	m := map[string]metricValue{}
	a := &o.p.acct
	n := int64(len(o.p.log.roundMs))
	tot := o.br.total(len(o.br.blocks))
	rounds := float64(a.rounds)
	put(m, endToEnd, "setup_s", setupS, 1)
	put(m, endToEnd, "packets_per_s", ratio(float64(a.packets), tot.wall.Seconds()), a.packets)
	put(m, endToEnd, "round_ms_p50", quantile(o.p.log.roundMs, 0.50), n)
	put(m, endToEnd, "round_ms_p99", quantile(o.p.log.roundMs, 0.99), n)
	put(m, endToEnd, "decide_ms_p50", quantile(o.p.log.decideMs, 0.50), n)
	put(m, endToEnd, "decide_ms_p99", quantile(o.p.log.decideMs, 0.99), n)
	put(m, endToEnd, "cpu_ms_per_round", ratio(float64(tot.cpu)/1e6, rounds), a.rounds)
	put(m, endToEnd, "alloc_bytes_per_round", ratio(float64(tot.alloc), rounds), a.rounds)
	put(m, endToEnd, "heap_live_mb", o.heapMB, 0)
	put(m, endToEnd, "filter_rate", a.filterRate(), a.packets)
	put(m, endToEnd, "recall", a.recall(), a.necessary)
	attempted, failed := o.failures()
	m[failRatio] = metricValue{Value: ratio(float64(failed), float64(attempted)), Unit: "ratio", Samples: attempted}
	return m
}

// perLayerMetrics assembles the traced run's readings. ref is the untraced
// run of the same seed, whose first len(t.br.blocks) blocks cover the same
// rounds; it supplies the tracing overhead and the untraced malloc count.
func perLayerMetrics(t, ref *outcome) map[string]metricValue {
	m := map[string]metricValue{}
	for _, d := range perLayer {
		put(m, perLayer, d.name, 0, 0)
	}
	set := func(name string, v float64, samples int64) { put(m, perLayer, name, v, samples) }
	tr := t.tr
	rounds := float64(tr.rounds)
	a := &t.p.acct

	// core
	set("core.decide_ms_p50", quantile(tr.decideMs, 0.50), int64(len(tr.decideMs)))
	set("core.decide_ms_p99", quantile(tr.decideMs, 0.99), int64(len(tr.decideMs)))
	set("core.feedback_ms_p50", quantile(tr.feedbackMs, 0.50), int64(len(tr.feedbackMs)))
	decideNs := float64(tr.nsDecide)
	set("core.decide_ns_per_packet", ratio(decideNs, float64(tr.packets)), tr.packets)
	children := float64(tr.nsPush + tr.nsRead + tr.nsCost + tr.nsForward + tr.nsSelect + tr.nsCommit)
	set("core.self_ms_per_round", ratio((decideNs-children)/1e6, rounds), tr.rounds)
	set("core.cache_hit_rate", ratio(float64(t.inc.hits), float64(t.inc.scored)), t.inc.scored)
	set("core.forwards_per_round", ratio(float64(t.inc.forwards), rounds), tr.rounds)
	set("core.selected_per_round", ratio(float64(tr.selected), rounds), tr.rounds)
	set("core.budget_util", ratio(tr.spent, tr.budget*rounds), tr.rounds)

	// predictor / nn
	set("predictor.forward_ms_per_round", ratio(float64(tr.nsForward)/1e6, rounds), tr.rounds)
	set("predictor.forward_ns_per_row", ratio(float64(tr.nsForward), float64(tr.rows)), tr.rows)
	set("predictor.push_ns_per_packet", ratio(float64(tr.nsPush), float64(tr.packets)), tr.packets)
	set("nn.flops_per_row", float64(t.flops), 0)
	set("nn.gflops_achieved", ratio(float64(t.flops)*float64(tr.rows), float64(tr.nsForward)), tr.rows)

	// bandit
	set("bandit.read_ns_per_packet", ratio(float64(tr.nsRead), float64(tr.packets)), tr.packets)
	set("bandit.push_ns_per_feedback", ratio(float64(tr.nsBanditPush), float64(tr.feedbacks)), tr.feedbacks)

	// knapsack
	set("knapsack.select_ms_per_round", ratio(float64(tr.nsSelect)/1e6, rounds), tr.rounds)
	set("knapsack.offers_per_round", ratio(float64(tr.offers), rounds), tr.rounds)
	set("knapsack.value_vs_fractional_opt", ratio(tr.value, tr.opt), tr.rounds)

	// decode
	busyMs := float64(tr.decodeBusy.Load()) / 1e6
	set("decode.cost_ns_per_packet", ratio(float64(tr.nsCost+tr.nsCommit), float64(tr.packets)), tr.packets)
	set("decode.busy_ms_per_round", ratio(busyMs, rounds), tr.rounds)
	set("decode.packets_per_round", ratio(float64(a.decoded), float64(a.rounds)), a.rounds)
	set("decode.necessary_ratio", ratio(float64(a.usefulDecodes), float64(a.decoded)), a.decoded)

	// infer
	set("infer.ns_per_frame", ratio(float64(tr.nsInfer), float64(tr.frames)), tr.frames)

	// pipeline
	pipeWall := t.br.total(len(t.br.blocks)).wall
	if t.pipeWall > 0 {
		pipeWall = t.pipeWall
	}
	// The shadow layers run inside the engine's gate stage; take their time
	// back out so the pipeline readings describe the engine, not the tracer.
	shadowMs := ratio(float64(tr.nsShadow)/1e6, rounds)
	runMs := ratio(float64(pipeWall)/1e6, float64(a.rounds)) - shadowMs
	set("pipeline.run_ms_per_round", runMs, a.rounds)
	set("pipeline.self_ms_per_round",
		runMs-ratio(float64(tr.nsDecide+tr.nsFeedback+tr.nsInfer)/1e6+busyMs/decodeWorkers, rounds), tr.rounds)
	set("pipeline.gate_stage_mean_ms", t.stages.gateMs-shadowMs, a.rounds)
	set("pipeline.decode_stage_mean_ms", t.stages.decodeMs, a.rounds)
	set("pipeline.infer_stage_mean_ms", t.stages.inferMs, a.rounds)
	set("pipeline.queue_depth_max", float64(t.stages.maxDepth), 0)

	// source
	set("source.gen_ms_per_round", t.genMs, 0)
	set("source.input_digest", float64(t.digest>>16), 0) // 48 bits: exact in a float64

	for name, r := range t.layer {
		set(name, r.v, r.n)
	}

	all := ref.br.total(len(ref.br.blocks))
	set("pipeline.mallocs_per_round", ratio(float64(all.mallocs), float64(ref.p.acct.rounds)), ref.p.acct.rounds)
	same := ref.br.total(len(t.br.blocks))
	untraced := ratio(float64(same.packets), same.wall.Seconds())
	traced := ratio(float64(a.packets), t.br.total(len(t.br.blocks)).wall.Seconds())
	if untraced > 0 {
		set("trace_overhead_pct", (1-traced/untraced)*100, a.rounds)
	}
	return m
}

// measured is what measureWorkload hands back for printing and reporting.
type measured struct {
	report workloadReport
	spans  *tracer
}

// measureWorkload builds, runs and checks one workload: once untraced for
// the end-to-end metrics and, with trace set, once more at the same seed
// over the first quarter of its blocks with spans and shadow layers on.
func measureWorkload(spec workloadSpec, seed int64, seconds float64, trace bool) (measured, error) {
	started := time.Now()
	rep := workloadReport{
		Workload: spec.name, Seed: seed, Why: spec.why, Streams: spec.streams,
		Active: spec.active(), Budget: spec.budget(),
	}
	blocks := spec.timedBlocks(seconds)
	quarter := (blocks + 3) / 4
	mark := warmRounds + quarter*spec.blockSize

	sys, err := build(spec, seed, false, blocks, mark)
	if err != nil {
		return measured{}, fmt.Errorf("%s: set-up: %w", spec.name, err)
	}
	setupS := time.Since(started).Seconds()
	if err := sys.run(); err != nil {
		rep.Notes = append(rep.Notes, "run error: "+err.Error())
	}
	ref := sys.outcome()
	sys.close()
	rep.EndToEnd = endToEndMetrics(ref, setupS)
	rep.Rounds = ref.p.acct.rounds
	rep.Attempted, rep.Failed = ref.failures()
	rep.DecisionHash = fmt.Sprintf("%016x", ref.p.acct.hash)
	rep.InputDigest = fmt.Sprintf("%016x", ref.digest)
	rep.Notes = append(rep.Notes, ref.failureNotes()...)
	out := measured{}

	if trace {
		runtime.GC()
		tsys, err := build(spec, seed, true, quarter, mark)
		if err != nil {
			return measured{}, fmt.Errorf("%s: traced set-up: %w", spec.name, err)
		}
		if err := tsys.run(); err != nil {
			rep.Notes = append(rep.Notes, "traced run error: "+err.Error())
		}
		t := tsys.outcome()
		tsys.close()
		rep.PerLayer = perLayerMetrics(t, ref)
		out.spans = t.tr
		_, tf := t.failures()
		rep.Failed += tf
		for _, n := range t.failureNotes() {
			rep.Notes = append(rep.Notes, "traced run: "+n)
		}
		// The traced run ends where the untraced run of the seed set its
		// mark; up to there the two must have been fed and have decided
		// alike, or the whole workload fails.
		if t.p.acct.hash != ref.p.acct.markHash {
			rep.Failed = rep.Attempted
			rep.Notes = append(rep.Notes, "decision hash of the traced run differs from the untraced run of the same seed")
		}
		if t.digest != ref.markDigest {
			rep.Failed = rep.Attempted
			rep.Notes = append(rep.Notes, "input digest differs between the two runs of one seed")
		}
	}
	if rep.Failed > rep.Attempted {
		rep.Failed = rep.Attempted
	}
	rep.Correct = rep.Failed == 0
	fr := rep.EndToEnd[failRatio]
	fr.Value = ratio(float64(rep.Failed), float64(rep.Attempted))
	rep.EndToEnd[failRatio] = fr
	rep.WallS = time.Since(started).Seconds()
	out.report = rep
	return out, nil
}
