package core

import (
	"bytes"
	"testing"

	"packetgame/internal/codec"
	"packetgame/internal/decode"
	"packetgame/internal/infer"
	"packetgame/internal/knapsack"
	"packetgame/internal/overload"
	"packetgame/internal/predictor"
	"packetgame/internal/trace"
)

// adTask is the anomaly-detection task used throughout these tests.
type adTask = infer.AnomalyDetection

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no streams", Config{Budget: 5, UseTemporal: true}},
		{"no budget", Config{Streams: 3, UseTemporal: true}},
		{"no scorer", Config{Streams: 3, Budget: 5}},
	}
	for _, c := range cases {
		if _, err := NewGate(c.cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestConfigPredictorWindowMismatch(t *testing.T) {
	pcfg := predictor.DefaultConfig()
	pcfg.Window = 10
	p, err := predictor.New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGate(Config{Streams: 2, Budget: 5, Window: 5, Predictor: p}); err == nil {
		t.Error("window mismatch must error")
	}
	if _, err := NewGate(Config{Streams: 2, Budget: 5, Window: 10, Predictor: p, TaskIndex: 3}); err == nil {
		t.Error("task index out of range must error")
	}
}

func TestGateProtocolEnforced(t *testing.T) {
	g, err := NewGate(Config{Streams: 2, Budget: 5, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Feedback(nil, nil); err == nil {
		t.Error("Feedback before Decide must error")
	}
	pkts := []*codec.Packet{
		{Type: codec.PictureI, GOPIndex: 0, GOPSize: 5, Size: 1000},
		{Type: codec.PictureI, GOPIndex: 0, GOPSize: 5, Size: 1000},
	}
	sel, err := g.Decide(pkts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Decide(pkts); err == nil {
		t.Error("second Decide without Feedback must error")
	}
	nec := make([]bool, len(sel))
	if err := g.Feedback(sel, nec[:0]); err == nil && len(sel) > 0 {
		t.Error("feedback length mismatch must error")
	}
	if err := g.Feedback(sel, nec); err != nil {
		t.Fatal(err)
	}
	if err := g.Feedback(sel, nec); err == nil {
		t.Error("double Feedback must error")
	}

	// An ack is held against the pending round slot for slot: naming one of
	// its streams twice, naming them in another order, or naming a stream it
	// did not select is rejected and leaves the round pending.
	g, err = NewGate(Config{Streams: 4, Budget: 100, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	sel, err = g.Decide([]*codec.Packet{pkts[0], pkts[0], pkts[0], nil})
	if err != nil || len(sel) != 3 {
		t.Fatalf("Decide = %v, %v; want three selections", sel, err)
	}
	nec = make([]bool, len(sel))
	for name, bad := range map[string][]int{
		"duplicated": {sel[0], sel[0], sel[0]},
		"permuted":   {sel[1], sel[0], sel[2]},
		"foreign":    {sel[0], sel[1], 3},
	} {
		if err := g.Feedback(bad, nec); err == nil {
			t.Errorf("%s ack %v of round %v must error", name, bad, sel)
		}
		if g.Pending() != 1 {
			t.Fatalf("%s ack consumed the pending round", name)
		}
	}
	if err := g.Feedback(sel, nec); err != nil {
		t.Fatalf("the round's own ack after rejected ones: %v", err)
	}
}

// recordingSelector keeps what the gate handed it and picks the last
// candidate alone.
type recordingSelector struct {
	cands  []knapsack.Candidate
	budget float64
}

func (r *recordingSelector) Select(dst []int, cands []knapsack.Candidate, budget float64) []int {
	r.cands, r.budget = append(r.cands[:0], cands...), budget
	if len(cands) == 0 {
		return dst
	}
	return append(dst, int(cands[len(cands)-1].Stream))
}

// TestCustomSelectorSeesActiveSet: a configured Selector is handed exactly
// the round's active set — the streams with a packet that are neither
// quarantined by their breaker nor refused by the brownout mode — ascending,
// with the confidence and cost the gate computed and the round's effective
// budget, and what it returns is what Decide returns.
func TestCustomSelectorSeesActiveSet(t *testing.T) {
	rec := &recordingSelector{}
	plan := overload.NewScripted(100)
	g, err := NewGate(Config{Streams: 6, Budget: 100, UseTemporal: true, Selector: rec, Planner: plan,
		Breaker: &BreakerConfig{FailureThreshold: 1, GapThreshold: -1, Cooldown: 10}})
	if err != nil {
		t.Fatal(err)
	}
	key := func() *codec.Packet { return &codec.Packet{Type: codec.PictureI, GOPSize: 8, Size: 1000} }
	pred := func() *codec.Packet { return &codec.Packet{Type: codec.PictureP, GOPSize: 8, GOPIndex: 1, Size: 300} }

	// Round 1, full mode: all six are candidates; the selector's pick, stream
	// 5, fails its decode and opens its breaker.
	sel, err := g.Decide([]*codec.Packet{key(), key(), key(), key(), key(), key()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.cands) != 6 || len(sel) != 1 || sel[0] != 5 {
		t.Fatalf("round 1: %d candidates, selection %v; want 6 and [5]", len(rec.cands), sel)
	}
	if err := g.FeedbackExt(sel, []bool{false}, []bool{true}); err != nil {
		t.Fatal(err)
	}

	// Round 2, keyframe-only at B_eff 3.5: stream 1 is idle, 2 and 4 carry
	// predicted pictures (shed), 5 is quarantined; 0 and 3 remain.
	plan.Set(3.5, overload.ModeKeyframeOnly)
	sel, err = g.Decide([]*codec.Packet{key(), nil, pred(), key(), pred(), key()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.cands) != 2 || rec.cands[0].Stream != 0 || rec.cands[1].Stream != 3 {
		t.Fatalf("round 2 candidates %+v, want streams [0 3]", rec.cands)
	}
	if rec.budget != 3.5 {
		t.Errorf("selector saw budget %v, want the round's B_eff 3.5", rec.budget)
	}
	for _, c := range rec.cands {
		if c.Value != g.Confidence(int(c.Stream)) || c.Cost != decode.DefaultCosts.I {
			t.Errorf("candidate %+v: want value %v, cost %v", c, g.Confidence(int(c.Stream)), decode.DefaultCosts.I)
		}
	}
	if len(sel) != 1 || sel[0] != 3 {
		t.Errorf("Decide returned %v, want the selector's [3]", sel)
	}
}

func TestGateRejectsWrongPacketCount(t *testing.T) {
	g, err := NewGate(Config{Streams: 3, Budget: 5, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Decide(make([]*codec.Packet, 2)); err == nil {
		t.Error("packet count mismatch must error")
	}
}

func TestGateRespectsBudgetPerRound(t *testing.T) {
	const m = 10
	g, err := NewGate(Config{Streams: m, Budget: 4, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	streams := make([]*codec.Stream, m)
	for i := range streams {
		streams[i] = codec.NewStream(codec.SceneConfig{BaseActivity: 0.7},
			codec.EncoderConfig{StreamID: i, GOPSize: 10}, int64(i))
	}
	for round := 0; round < 100; round++ {
		pkts := make([]*codec.Packet, m)
		for i, st := range streams {
			pkts[i] = st.Next()
		}
		before := g.Stats().CostSpent
		sel, err := g.Decide(pkts)
		if err != nil {
			t.Fatal(err)
		}
		if spent := g.Stats().CostSpent - before; spent > 4+1e-9 {
			t.Fatalf("round %d spent %v > budget 4", round, spent)
		}
		if err := g.Feedback(sel, make([]bool, len(sel))); err != nil {
			t.Fatal(err)
		}
	}
	st := g.Stats()
	if st.Rounds != 100 || st.Packets != 100*m {
		t.Errorf("stats = %+v", st)
	}
	if st.Decoded == 0 {
		t.Error("gate decoded nothing")
	}
}

func TestGateIdleStreamsNeverSelected(t *testing.T) {
	g, err := NewGate(Config{Streams: 3, Budget: 10, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	pkts := []*codec.Packet{
		nil,
		{Type: codec.PictureI, GOPIndex: 0, GOPSize: 5, Size: 500},
		nil,
	}
	sel, err := g.Decide(pkts)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range sel {
		if i != 1 {
			t.Errorf("idle stream %d selected", i)
		}
	}
	if err := g.Feedback(sel, make([]bool, len(sel))); err != nil {
		t.Fatal(err)
	}
}

// mkStreams builds m synthetic cameras with anomalies for AD experiments.
func mkStreams(m int, seed int64) []*codec.Stream {
	streams := make([]*codec.Stream, m)
	for i := range streams {
		streams[i] = codec.NewStream(
			codec.SceneConfig{BaseActivity: 0.4, AnomalyRate: 40, AnomalyDuration: 30},
			codec.EncoderConfig{StreamID: i, GOPSize: 25},
			seed+int64(i)*101)
	}
	return streams
}

// MkStreams exports mkStreams to the package's external tests.
var MkStreams = mkStreams

func TestBaselineGateStats(t *testing.T) {
	const m = 4
	b := NewBaselineGate(m, decode.DefaultCosts, &knapsack.RoundRobin{}, nil, 2)
	if b.Budget() != 2 {
		t.Errorf("budget = %v", b.Budget())
	}
	pkts := make([]*codec.Packet, m)
	for i := range pkts {
		pkts[i] = &codec.Packet{Type: codec.PictureI, GOPIndex: 0, GOPSize: 5, Size: 100}
	}
	sel, err := b.Decide(pkts)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Feedback(sel, make([]bool, len(sel))); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.Rounds != 1 || st.Packets != m {
		t.Errorf("stats = %+v", st)
	}
}

func TestBaselineGateWrongLength(t *testing.T) {
	b := NewBaselineGate(3, decode.DefaultCosts, &knapsack.RoundRobin{}, nil, 2)
	if _, err := b.Decide(make([]*codec.Packet, 2)); err == nil {
		t.Error("length mismatch must error")
	}
}

func TestDependencyAwareAblation(t *testing.T) {
	// With dependency awareness off, the gate must still run and respect
	// the (bare-cost) budget.
	off := false
	g, err := NewGate(Config{Streams: 5, Budget: 3, UseTemporal: true, DependencyAware: &off})
	if err != nil {
		t.Fatal(err)
	}
	streams := mkStreams(5, 31)
	for round := 0; round < 50; round++ {
		pkts := make([]*codec.Packet, 5)
		for i, st := range streams {
			pkts[i] = st.Next()
		}
		sel, err := g.Decide(pkts)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Feedback(sel, make([]bool, len(sel))); err != nil {
			t.Fatal(err)
		}
	}
	if g.Stats().Decoded == 0 {
		t.Error("no packets decoded")
	}
}

func TestGateTraceRecordsDecisions(t *testing.T) {
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	g, err := NewGate(Config{Streams: 3, Budget: 6, UseTemporal: true, Trace: tw})
	if err != nil {
		t.Fatal(err)
	}
	streams := mkStreams(3, 77)
	const rounds = 20
	for r := 0; r < rounds; r++ {
		pkts := make([]*codec.Packet, 3)
		for i, st := range streams {
			pkts[i] = st.Next()
		}
		sel, err := g.Decide(pkts)
		if err != nil {
			t.Fatal(err)
		}
		nec := make([]bool, len(sel))
		for k := range nec {
			nec[k] = k%2 == 0
		}
		if err := g.Feedback(sel, nec); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	sum, err := trace.Summarize(trace.NewReader(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Rounds != rounds {
		t.Errorf("trace rounds = %d, want %d", sum.Rounds, rounds)
	}
	if sum.Packets != 3*rounds {
		t.Errorf("trace packets = %d, want %d", sum.Packets, 3*rounds)
	}
	if sum.Selected == 0 || sum.Selected != g.Stats().Decoded {
		t.Errorf("trace selected = %d, gate decoded = %d", sum.Selected, g.Stats().Decoded)
	}
	if sum.BudgetUtilization <= 0 || sum.BudgetUtilization > 1 {
		t.Errorf("budget utilization = %v", sum.BudgetUtilization)
	}
}
