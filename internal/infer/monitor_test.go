package infer

import (
	"math/rand"
	"testing"

	"packetgame/internal/codec"
)

// sumClassStats is the O(m) walk ClassTotals replaces.
func sumClassStats(f *Fleet) (tot [4]int64) {
	for i := 0; i < f.Len(); i++ {
		nr, nc, pr, pc := f.Stream(i).ClassStats()
		tot[0] += nr
		tot[1] += nc
		tot[2] += pr
		tot[3] += pc
	}
	return tot
}

// TestFleetClassTotalsProperty: the fleet's kept class totals equal the sum
// of its monitors' class counters after every step of a seeded random mix of
// decoded and skipped rounds, imports (of other monitors' states, fresh
// states and arbitrary counters) and resets across streams of a mixed-task
// fleet. Arbitrary counters are drawn with correct ≤ rounds, so every such
// import is accepted; a separate spoiled draw (more correct rounds than
// rounds) must be refused and leave the monitor and the fleet untouched.
func TestFleetClassTotalsProperty(t *testing.T) {
	tasks := []Task{PersonCounting{}, FireDetection{}, AnomalyDetection{}}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const m = 7
		f := NewFleetOf(tasks, m)
		scene := func() codec.Scene {
			return codec.Scene{PersonCount: rng.Intn(3), Fire: rng.Intn(4) == 0, Anomaly: rng.Intn(5) == 0}
		}
		for step := 0; step < 2000; step++ {
			mon := f.Stream(rng.Intn(m))
			switch op := rng.Intn(10); {
			case op < 4:
				s := scene()
				mon.ObserveDecoded(s, s)
			case op < 8:
				mon.ObserveSkipped(scene())
			case op == 8:
				st := f.Stream(rng.Intn(m)).Export()
				switch rng.Intn(3) {
				case 0:
					st.NegRounds, st.PosRounds = rng.Int63n(50), rng.Int63n(50)
					st.NegCorrect, st.PosCorrect = rng.Int63n(st.NegRounds+1), rng.Int63n(st.PosRounds+1)
				case 1:
					st.PosRounds = rng.Int63n(50)
					st.PosCorrect = st.PosRounds + 1 + rng.Int63n(50)
					nr, nc, pr, pc := mon.ClassStats()
					fnr, fnc, fpr, fpc := f.ClassTotals()
					if err := mon.Import(st); err == nil {
						t.Fatalf("seed %d step %d: spoiled import %+v accepted", seed, step, st)
					}
					if a, b, c, d := mon.ClassStats(); [4]int64{a, b, c, d} != [4]int64{nr, nc, pr, pc} {
						t.Fatalf("seed %d step %d: refused import moved the monitor", seed, step)
					}
					if a, b, c, d := f.ClassTotals(); [4]int64{a, b, c, d} != [4]int64{fnr, fnc, fpr, fpc} {
						t.Fatalf("seed %d step %d: refused import moved the fleet totals", seed, step)
					}
					continue
				}
				if err := mon.Import(st); err != nil {
					t.Fatalf("seed %d step %d: import %+v refused: %v", seed, step, st, err)
				}
			default:
				mon.Reset()
			}
			nr, nc, pr, pc := f.ClassTotals()
			if got, want := [4]int64{nr, nc, pr, pc}, sumClassStats(f); got != want {
				t.Fatalf("seed %d step %d: ClassTotals %v, sum of monitors %v", seed, step, got, want)
			}
		}
	}
}

// TestCopiedMonitorLeavesFleetAlone: a Monitor value copied out of a fleet
// is a stand-alone monitor; scoring, importing into or resetting the copy
// moves neither the fleet's totals nor the monitor it was copied from.
func TestCopiedMonitorLeavesFleetAlone(t *testing.T) {
	f := NewFleet(FireDetection{}, 2)
	f.Stream(0).ObserveSkipped(codec.Scene{Fire: true})
	f.Stream(1).ObserveSkipped(codec.Scene{})
	want := sumClassStats(f)

	cp := *f.Stream(0)
	steps := []func(){
		func() { cp.ObserveSkipped(codec.Scene{}) },
		func() { cp.ObserveDecoded(codec.Scene{Fire: true}, codec.Scene{Fire: true}) },
		func() { cp.Import(MonitorState{NegRounds: 40, PosRounds: 9}) },
		func() { cp.Reset() },
		func() { cp.ObserveSkipped(codec.Scene{Fire: true}) },
	}
	for k, step := range steps {
		step()
		nr, nc, pr, pc := f.ClassTotals()
		if got := [4]int64{nr, nc, pr, pc}; got != want || sumClassStats(f) != want {
			t.Fatalf("step %d on the copy moved the fleet: totals %v, monitors %v, want %v", k, got, sumClassStats(f), want)
		}
	}
	if nr, _, pr, _ := cp.ClassStats(); nr != 0 || pr != 1 {
		t.Fatalf("the copy kept its own counters wrong: %d negative / %d positive rounds", nr, pr)
	}
}
