package overload

import (
	"testing"
	"time"

	"packetgame/internal/metrics"
)

func mustGovernor(t *testing.T, cfg Config) *Governor {
	t.Helper()
	g, err := NewGovernor(cfg)
	if err != nil {
		t.Fatalf("NewGovernor: %v", err)
	}
	return g
}

func TestGovernorValidation(t *testing.T) {
	bad := []Config{
		{},
		{SLO: time.Millisecond},              // no budget
		{SLO: -time.Millisecond, Budget: 10}, // negative SLO
		{SLO: time.Millisecond, Budget: 10, Cut: 1.5},                  // cut >= 1
		{SLO: time.Millisecond, Budget: 10, Alpha: 2},                  // alpha > 1
		{SLO: time.Millisecond, Budget: 10, Guard: 1.2},                // guard > 1
		{SLO: time.Millisecond, Budget: 10, Guard: 0.5, Headroom: 0.6}, // headroom >= guard
		{SLO: time.Millisecond, Budget: 10, MinBudget: 20},             // min > budget
		{SLO: time.Millisecond, Budget: 10, EnterAfter: -1},            // negative hysteresis
		{SLO: time.Millisecond, Budget: 10, ExitAfter: -3},             // negative hysteresis
		{SLO: time.Millisecond, Budget: 10, SaturatedDepth: -1},        // negative depth
		{SLO: time.Millisecond, Budget: 10, Step: -1},                  // negative step
	}
	for i, cfg := range bad {
		if _, err := NewGovernor(cfg); err == nil {
			t.Errorf("config %d: expected error, got nil", i)
		}
	}
	if _, err := NewGovernor(Config{SLO: 50 * time.Millisecond, Budget: 40}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestGovernorAIMD(t *testing.T) {
	cfg := Config{
		SLO: 100 * time.Millisecond, Budget: 64,
		Cut: 0.5, Step: 2, MinBudget: 4,
		EnterAfter: 3, ExitAfter: 4,
	}
	g := mustGovernor(t, cfg)

	b, mode := g.Plan()
	if b != 64 || mode != ModeFull {
		t.Fatalf("initial plan = (%v, %v), want (64, full)", b, mode)
	}

	// One pressured round: multiplicative cut, no mode change yet.
	g.Observe(95*time.Millisecond, 0)
	b, mode = g.Plan()
	if b != 32 || mode != ModeFull {
		t.Fatalf("after 1 cut plan = (%v, %v), want (32, full)", b, mode)
	}

	// Healthy rounds with headroom raise additively back toward Budget. The
	// first healthy round is still gated by the spiked EWMA (93.75ms →
	// 73.75ms, above Headroom·SLO = 65ms), so 3 rounds yield 2 raises.
	for i := 0; i < 3; i++ {
		g.Observe(10*time.Millisecond, 0)
	}
	b, _ = g.Plan()
	if b != 36 {
		t.Fatalf("after 3 healthy rounds B_eff = %v, want 36 (2 raises)", b)
	}

	// Healthy but *without* headroom (between Headroom·SLO and Guard·SLO):
	// neither cut nor raise.
	g.Observe(80*time.Millisecond, 0)
	if b2, _ := g.Plan(); b2 != 36 {
		t.Fatalf("no-headroom round changed B_eff to %v", b2)
	}

	// Cuts floor at MinBudget.
	for i := 0; i < 20; i++ {
		g.Observe(200*time.Millisecond, 0)
	}
	if b, _ = g.Plan(); b != 4 {
		t.Fatalf("B_eff floor = %v, want MinBudget=4", b)
	}

	// Raises cap at the nominal budget. The EWMA is saturated high from the
	// cut storm, so allow it to drain first; raises resume once both the
	// sample and the EWMA show headroom.
	for i := 0; i < 200; i++ {
		g.Observe(5*time.Millisecond, 0)
	}
	if b, _ = g.Plan(); b != 64 {
		t.Fatalf("B_eff cap = %v, want Budget=64", b)
	}
}

func TestGovernorLadderHysteresis(t *testing.T) {
	cfg := Config{
		SLO: 100 * time.Millisecond, Budget: 64,
		EnterAfter: 2, ExitAfter: 3,
	}
	g := mustGovernor(t, cfg)

	press := func() { g.Observe(150*time.Millisecond, 0) }
	heal := func() { g.Observe(5*time.Millisecond, 0) }

	// A single pressured round must not step down.
	press()
	if _, mode := g.Plan(); mode != ModeFull {
		t.Fatalf("mode after 1 pressured round = %v, want full", mode)
	}
	// A healthy round resets the pressure streak.
	heal()
	press()
	if _, mode := g.Plan(); mode != ModeFull {
		t.Fatalf("streak not reset by healthy round")
	}
	// Two consecutive pressured rounds step down one rung.
	press()
	if _, mode := g.Plan(); mode != ModeTemporalOnly {
		t.Fatalf("mode after EnterAfter pressured rounds = %v, want temporal-only", mode)
	}
	// Descend all the way; the ladder clamps at shed.
	for i := 0; i < 10; i++ {
		press()
	}
	if _, mode := g.Plan(); mode != ModeShed {
		t.Fatalf("ladder did not clamp at shed")
	}

	// ExitAfter healthy rounds step back up exactly one rung at a time.
	heal()
	heal()
	if _, mode := g.Plan(); mode != ModeShed {
		t.Fatalf("stepped up before ExitAfter healthy rounds")
	}
	heal()
	if _, mode := g.Plan(); mode != ModeKeyframeOnly {
		t.Fatalf("did not step up after ExitAfter healthy rounds")
	}
	for i := 0; i < 3*3; i++ {
		heal()
	}
	if _, mode := g.Plan(); mode != ModeFull {
		t.Fatalf("ladder did not recover to full")
	}

	snap := g.Snapshot()
	if snap.StepDowns != 3 || snap.StepUps != 3 {
		t.Fatalf("transition counters = (%d down, %d up), want (3, 3)", snap.StepDowns, snap.StepUps)
	}
}

func TestGovernorSaturatedDepthIsPressure(t *testing.T) {
	g := mustGovernor(t, Config{
		SLO: 100 * time.Millisecond, Budget: 64,
		SaturatedDepth: 8, EnterAfter: 1,
	})
	// Latency is nominal but the queue is saturated: still pressure.
	g.Observe(5*time.Millisecond, 8)
	b, mode := g.Plan()
	if b >= 64 {
		t.Fatalf("saturated depth did not cut budget: B_eff=%v", b)
	}
	if mode != ModeTemporalOnly {
		t.Fatalf("saturated depth did not step ladder: mode=%v", mode)
	}
}

func TestGovernorStats(t *testing.T) {
	var stats metrics.OverloadStats
	g := mustGovernor(t, Config{
		SLO: 100 * time.Millisecond, Budget: 64,
		EnterAfter: 1, ExitAfter: 1, Alpha: 1, Stats: &stats,
	})
	g.Observe(150*time.Millisecond, 0) // miss + cut + step down
	g.Observe(5*time.Millisecond, 0)   // raise + step up
	s := stats.Snapshot()
	if s.SLOMisses != 1 || s.Cuts != 1 || s.Raises != 1 || s.StepDowns != 1 || s.StepUps != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.ModeRounds[0] != 1 || s.ModeRounds[1] != 1 {
		t.Fatalf("mode rounds = %v", s.ModeRounds)
	}
	want := g.Snapshot().BEff
	if s.BEff != want {
		t.Fatalf("B_eff gauge = %v, want %v", s.BEff, want)
	}
	gs := g.Snapshot()
	if gs.Rounds != 2 || gs.SLOMisses != 1 || gs.Pressured != 1 {
		t.Fatalf("governor snapshot = %+v", gs)
	}
}

func TestGovernorDeterminism(t *testing.T) {
	run := func() []Snapshot {
		g := mustGovernor(t, Config{SLO: 50 * time.Millisecond, Budget: 96})
		var out []Snapshot
		lat := int64(10 * time.Millisecond)
		for i := 0; i < 500; i++ {
			// A deterministic sawtooth crossing the guard band repeatedly.
			lat = (lat*13)%int64(90*time.Millisecond) + int64(time.Millisecond)
			g.Observe(time.Duration(lat), i%11)
			out = append(out, g.Snapshot())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trajectories diverge at round %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestModeString(t *testing.T) {
	want := map[Mode]string{
		ModeFull: "full", ModeTemporalOnly: "temporal-only",
		ModeKeyframeOnly: "keyframe-only", ModeShed: "shed",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("Mode(%d).String() = %q, want %q", m, m.String(), s)
		}
	}
	if Mode(9).String() != "Mode(9)" {
		t.Errorf("unknown mode string = %q", Mode(9).String())
	}
}
