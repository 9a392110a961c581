package pipeline

import (
	"fmt"
	"testing"

	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/infer"
)

// runForDecisions runs a freshly built engine over a seeded fleet and
// returns every round's decode set plus the final report. The fleet, gate,
// and source are rebuilt identically each call, so any divergence between
// two calls comes from the overlap mode under test.
func runForDecisions(t *testing.T, pipelined bool, k, workers, m, rounds int, budget float64, seed int64) ([][]int, Report, core.Stats) {
	t.Helper()
	g, err := core.NewGate(core.Config{Streams: m, Budget: budget, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	var decisions [][]int
	eng, err := New(Config{
		Source:      NewLocalSource(mkFleet(m, seed), rounds),
		Gate:        g,
		Task:        infer.PersonCounting{},
		Workers:     workers,
		MaxInFlight: k,
		Pipelined:   pipelined,
		OnRound: func(round int64, sel []int) {
			if int64(len(decisions)) != round {
				t.Errorf("OnRound out of order: got round %d after %d rounds", round, len(decisions))
			}
			decisions = append(decisions, sel)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	return decisions, rep, g.Stats()
}

// refForDecisions runs the reference loop over the same seeded fleet and a
// gate built the same way: the selections, counters and gate statistics both
// overlap modes of the engine must reproduce at lag k.
func refForDecisions(t *testing.T, k, m, rounds int, budget float64, seed int64) ([][]int, Report, core.Stats) {
	t.Helper()
	g := mkGate(t, m, budget)
	g.SetMaxPending(k)
	sels, rep := refLoop(t, g, NewLocalSource(mkFleet(m, seed), rounds), infer.PersonCounting{}, m, k)
	return sels, rep, g.Stats()
}

// stripTiming zeroes a report's wall-clock-dependent fields so the
// remaining counters can be compared exactly.
func stripTiming(rep Report) Report {
	rep.Elapsed = 0
	rep.DecodedFPS = 0
	return rep
}

func compareRuns(t *testing.T, name string, selA, selB [][]int, repA, repB Report, stA, stB core.Stats) {
	t.Helper()
	if len(selA) != len(selB) {
		t.Fatalf("%s: %d vs %d rounds of decisions", name, len(selA), len(selB))
	}
	for r := range selA {
		a, b := selA[r], selB[r]
		if len(a) != len(b) {
			t.Fatalf("%s: round %d decode sets differ: %v vs %v", name, r, a, b)
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("%s: round %d decode sets differ: %v vs %v", name, r, a, b)
			}
		}
	}
	if ra, rb := stripTiming(repA), stripTiming(repB); ra != rb {
		t.Errorf("%s: reports differ:\n  a: %+v\n  b: %+v", name, ra, rb)
	}
	if stA != stB {
		t.Errorf("%s: gate stats differ:\n  a: %+v\n  b: %+v", name, stA, stB)
	}
}

// TestPipelinedMatchesSequentialDecisions is the determinism regression
// test: at equal feedback lag k, the engine with overlap off and with overlap
// on must both produce the reference loop's per-round decode sets, final
// report counters, and gate statistics on a seeded fleet — for the strict
// k=1 schedule, a deeper k=3 schedule, and a stress-scale configuration.
func TestPipelinedMatchesSequentialDecisions(t *testing.T) {
	cases := []struct {
		name       string
		k, workers int
		m, rounds  int
		budget     float64
		seed       int64
	}{
		{name: "k1", k: 1, workers: 4, m: 16, rounds: 120, budget: 6, seed: 21},
		{name: "k3", k: 3, workers: 7, m: 24, rounds: 150, budget: 9, seed: 22},
		{name: "k4-wide", k: 4, workers: 8, m: 64, rounds: 100, budget: 20, seed: 23},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			selRef, repRef, stRef := refForDecisions(t, tc.k, tc.m, tc.rounds, tc.budget, tc.seed)
			if int64(len(selRef)) != repRef.Rounds || repRef.Rounds != int64(tc.rounds) {
				t.Fatalf("reference ran %d rounds (%d selections), want %d", repRef.Rounds, len(selRef), tc.rounds)
			}
			for _, pipelined := range []bool{false, true} {
				sel, rep, st := runForDecisions(t, pipelined, tc.k, tc.workers, tc.m, tc.rounds, tc.budget, tc.seed)
				compareRuns(t, fmt.Sprintf("%s/pipelined=%v", tc.name, pipelined), selRef, sel, repRef, rep, stRef, st)
			}
		})
	}
}

// TestSequentialLagOneMatchesSeedSchedule pins the default configuration
// (MaxInFlight unset) and an explicit k=1 to the reference loop at k=1: the
// paper's strict Decide/Feedback alternation.
func TestSequentialLagOneMatchesSeedSchedule(t *testing.T) {
	selRef, repRef, stRef := refForDecisions(t, 1, 12, 100, 5, 31)
	for _, k := range []int{0, 1} {
		sel, rep, st := runForDecisions(t, false, k, 4, 12, 100, 5, 31)
		compareRuns(t, fmt.Sprintf("MaxInFlight=%d", k), selRef, sel, repRef, rep, stRef, st)
	}
}

// callLog records, in call order, every source pull ("P"), Decide ("D<t>")
// and Feedback ("F<t>") of one run. All three happen on Run's goroutine, so
// the log needs no lock.
type callLog struct{ calls []string }

// orderGate is a plain Decider — no DecideSparseAppend, no FeedbackFull —
// that logs its calls on the way to the gate behind it.
type orderGate struct {
	g            *core.Gate
	log          *callLog
	decided, fed int
}

func (o *orderGate) Decide(pkts []*codec.Packet) ([]int, error) {
	o.log.calls = append(o.log.calls, fmt.Sprintf("D%d", o.decided))
	o.decided++
	return o.g.Decide(pkts)
}

func (o *orderGate) Feedback(sel []int, necessary []bool) error {
	o.log.calls = append(o.log.calls, fmt.Sprintf("F%d", o.fed))
	o.fed++
	return o.g.Feedback(sel, necessary)
}

// orderSource logs every pull of the source behind it, dense or sparse.
type orderSource struct {
	SparseRoundSource
	log *callLog
}

func (s orderSource) NextRound() ([]*codec.Packet, error) {
	s.log.calls = append(s.log.calls, "P")
	return s.SparseRoundSource.NextRound()
}

func (s orderSource) NextRoundSparse() (*codec.Round, error) {
	s.log.calls = append(s.log.calls, "P")
	return s.SparseRoundSource.NextRoundSparse()
}

// TestLagScheduleCallOrder pins the lag-k schedule as the gate sees it: for
// k ∈ {1,2,4}, overlap off and on, a dense-only and a sparse source, a plain
// Decider is called exactly D0…D(k−1), F0, Dk, F1, … with the tail of
// Feedbacks after the last Decide. With overlap off the source pulls are
// pinned too: F(t−k) comes before round t's pull, so a source that blocks
// finds the gate with no feedback due.
func TestLagScheduleCallOrder(t *testing.T) {
	const m, rounds = 8, 12
	for _, k := range []int{1, 2, 4} {
		var want, wantDF []string // with and without the pulls
		for r := 0; r <= rounds; r++ {
			if r >= k {
				want = append(want, fmt.Sprintf("F%d", r-k))
			}
			want = append(want, "P") // the last pull is the one that returns io.EOF
			if r < rounds {
				want = append(want, fmt.Sprintf("D%d", r))
			}
		}
		for r := rounds - k + 1; r < rounds; r++ {
			want = append(want, fmt.Sprintf("F%d", r))
		}
		for _, c := range want {
			if c != "P" {
				wantDF = append(wantDF, c)
			}
		}
		for _, pipelined := range []bool{false, true} {
			for _, dense := range []bool{false, true} {
				name := fmt.Sprintf("k=%d/pipelined=%v/dense=%v", k, pipelined, dense)
				log := &callLog{}
				g := mkGate(t, m, 4)
				g.SetMaxPending(k)
				var src RoundSource = orderSource{NewLocalSource(mkFleet(m, 61), rounds), log}
				if dense {
					src = denseOnly{src}
				}
				eng, err := New(Config{
					Source: src, Gate: &orderGate{g: g, log: log}, Task: infer.PersonCounting{},
					MaxInFlight: k, Pipelined: pipelined,
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Run(0); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got, exp := log.calls, want
				if pipelined {
					got, exp = nil, wantDF
					for _, c := range log.calls {
						if c != "P" {
							got = append(got, c)
						}
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(exp) {
					t.Errorf("%s: calls\n  got  %v\n  want %v", name, got, exp)
				}
			}
		}
	}
}
