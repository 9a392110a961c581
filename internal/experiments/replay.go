package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"packetgame/internal/capture"
)

// Replay exercises the pgcap capture/replay stack against the committed
// deterministic corpus: (1) the determinism audit — every corpus capture's
// packets re-gated and diffed against its recorded decision trace, (2) the
// timing leg — a real-clock replay at speedup 1 that must reproduce the
// recorded schedule within 5%, and (3) the flat-rate control — the
// tcpreplay-style uniform schedule that demonstrably flattens the recorded
// bursts (the failure mode timestamp-preserving replay exists to avoid).
// At full scale the results are written to BENCH_replay.json; when the
// corpus has not been generated the experiment says so and skips the write.
func Replay(o Options) error {
	o = o.withDefaults()
	o.printf("=== Replay: capture audits, recorded-timing fidelity, flat-rate control ===\n")

	dir, ok := findCorpusDir()
	if !ok {
		o.printf("corpus not found (testdata/captures/*.pgc): run `make corpus` to generate it\n")
		o.printf("skipping audits, timing legs, and the BENCH_replay.json write\n")
		return nil
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.pgc"))
	if err != nil || len(paths) == 0 {
		o.printf("corpus dir %s has no captures: run `make corpus`\n", dir)
		o.printf("skipping audits, timing legs, and the BENCH_replay.json write\n")
		return nil
	}

	var report replayReport

	// Leg 1: decision-trace determinism audits.
	o.printf("\n--- determinism audits ---\n")
	o.printf("%-34s %8s %10s %8s\n", "capture", "rounds", "divergent", "verdict")
	var firstCapture *capture.Capture
	for _, path := range paths {
		c, err := capture.LoadFile(path)
		if err != nil {
			return err
		}
		if firstCapture == nil {
			firstCapture = c
		}
		res, err := capture.Audit(c, capture.AuditOptions{})
		if err != nil {
			return err
		}
		verdict := "OK"
		if !res.Ok() {
			verdict = "DIVERGED"
		}
		o.printf("%-34s %8d %10d %8s\n", filepath.Base(path), res.Rounds, res.Divergent, verdict)
		report.Audits = append(report.Audits, replayAudit{
			Capture: filepath.Base(path), Rounds: res.Rounds, Divergent: res.Divergent,
		})
		if !res.Ok() {
			return fmt.Errorf("replay: %s diverged on %d/%d rounds (first at %d) — gate decisions are no longer reproducible",
				filepath.Base(path), res.Divergent, res.Rounds, res.FirstDivergence)
		}
	}

	// Leg 2: real-clock timing fidelity at speedup 1. At reduced scale the
	// replay is window-cut to scale·duration so smoke runs stay fast; the
	// 5% acceptance bound is only enforced on the full-length replay.
	c := firstCapture
	w := capture.Window{}
	if o.Scale < 1 {
		w.To = time.Duration(float64(c.Duration()) * o.Scale)
		if w.To < 200*time.Millisecond {
			w.To = 200 * time.Millisecond
		}
	}
	src, err := capture.NewTimedSource(c, capture.ReplayOptions{Speedup: 1, Window: w})
	if err != nil {
		return err
	}
	recorded := scheduleOffsets(c, w)
	for {
		if _, err := src.NextRoundSparse(); err != nil {
			break
		}
	}
	emitted := src.Emitted()
	if len(emitted) != len(recorded) {
		return fmt.Errorf("replay: emitted %d rounds, schedule had %d", len(emitted), len(recorded))
	}
	span := emitted[len(emitted)-1] - emitted[0]
	wantSpan := recorded[len(recorded)-1] - recorded[0]
	spanErr := relErr(float64(span), float64(wantSpan))
	var worstGap float64
	for i := 1; i < len(emitted); i++ {
		g := relErr(float64(emitted[i]-emitted[i-1]), float64(recorded[i]-recorded[i-1]))
		if g > worstGap {
			worstGap = g
		}
	}
	o.printf("\n--- recorded-timing replay (speedup 1, real clock) ---\n")
	o.printf("rounds %d, recorded span %v, replayed span %v (err %.2f%%), worst gap err %.2f%%\n",
		len(emitted), wantSpan.Round(time.Millisecond), span.Round(time.Millisecond),
		spanErr*100, worstGap*100)
	report.Timing = replayTiming{
		Rounds: len(emitted), RecordedSpanMs: float64(wantSpan) / 1e6,
		ReplayedSpanMs: float64(span) / 1e6, SpanErrPct: spanErr * 100,
		WorstGapErrPct: worstGap * 100,
	}
	if o.Scale >= 1 && spanErr > 0.05 {
		return fmt.Errorf("replay: span error %.2f%% exceeds the 5%% acceptance bound", spanErr*100)
	}

	// Leg 3: the flat-rate control on the virtual clock — exact arithmetic,
	// no wall-clock noise. The recorded schedule is bursty; the flat one
	// must not be.
	clock := &capture.VirtualClock{}
	flat, err := capture.NewTimedSource(c, capture.ReplayOptions{Flat: true, Clock: clock})
	if err != nil {
		return err
	}
	for {
		if _, err := flat.NextRoundSparse(); err != nil {
			break
		}
	}
	recB := burstiness(allOffsets(c))
	flatB := burstiness(flat.Emitted())
	o.printf("\n--- flat-rate control (virtual clock) ---\n")
	o.printf("burstiness (max gap / mean gap): recorded %.2f, flat %.2f\n", recB, flatB)
	o.printf("flat-rate replay erases the recorded burst structure; recorded-timing replay preserves it\n")
	report.Flat = replayFlat{RecordedBurstiness: recB, FlatBurstiness: flatB}
	if recB < 2 {
		return fmt.Errorf("replay: corpus schedule not bursty (%.2f) — the control proves nothing", recB)
	}
	if flatB > 1.01 {
		return fmt.Errorf("replay: flat replay still bursty (%.2f)", flatB)
	}

	if o.Scale >= 1 {
		report.Meta = benchMeta("replay")
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile("BENCH_replay.json", append(buf, '\n'), 0o644); err != nil {
			return err
		}
		o.printf("\nwrote BENCH_replay.json\n")
	} else {
		o.printf("\n(scale %.2f < 1: BENCH_replay.json not written)\n", o.Scale)
	}
	return nil
}

// scheduleOffsets returns the recorded round offsets inside the window,
// relative to the first surviving round.
func scheduleOffsets(c *capture.Capture, w capture.Window) []time.Duration {
	rounds := c.Rounds
	if w != (capture.Window{}) {
		rounds = c.FilterWindow(w, false).Rounds
	}
	if len(rounds) == 0 {
		return nil
	}
	base := rounds[0].TS
	out := make([]time.Duration, len(rounds))
	for i, r := range rounds {
		out[i] = r.TS - base
	}
	return out
}

func allOffsets(c *capture.Capture) []time.Duration {
	return scheduleOffsets(c, capture.Window{})
}

// burstiness is max inter-round gap over mean gap (1 = perfectly uniform).
func burstiness(ts []time.Duration) float64 {
	if len(ts) < 2 {
		return 1
	}
	var maxGap time.Duration
	for i := 1; i < len(ts); i++ {
		if g := ts[i] - ts[i-1]; g > maxGap {
			maxGap = g
		}
	}
	mean := float64(ts[len(ts)-1]-ts[0]) / float64(len(ts)-1)
	if mean <= 0 {
		return 1
	}
	return float64(maxGap) / mean
}

func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	d := (got - want) / want
	if d < 0 {
		d = -d
	}
	return d
}

// findCorpusDir locates testdata/captures from the repo root or from inside
// a package directory (the experiment smoke tests run with the package as
// working directory).
func findCorpusDir() (string, bool) {
	for _, dir := range []string{
		filepath.Join("testdata", "captures"),
		filepath.Join("..", "..", "testdata", "captures"),
	} {
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, true
		}
	}
	return "", false
}

type replayAudit struct {
	Capture   string `json:"capture"`
	Rounds    int    `json:"rounds"`
	Divergent int    `json:"divergent"`
}

type replayTiming struct {
	Rounds         int     `json:"rounds"`
	RecordedSpanMs float64 `json:"recorded_span_ms"`
	ReplayedSpanMs float64 `json:"replayed_span_ms"`
	SpanErrPct     float64 `json:"span_err_pct"`
	WorstGapErrPct float64 `json:"worst_gap_err_pct"`
}

type replayFlat struct {
	RecordedBurstiness float64 `json:"recorded_burstiness"`
	FlatBurstiness     float64 `json:"flat_burstiness"`
}

type replayReport struct {
	Meta   BenchMeta     `json:"meta"`
	Audits []replayAudit `json:"audits"`
	Timing replayTiming  `json:"timing"`
	Flat   replayFlat    `json:"flat"`
}
