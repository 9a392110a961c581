package pipeline

import (
	"sync"
	"testing"
	"time"

	"packetgame/internal/core"
	"packetgame/internal/infer"
	"packetgame/internal/metrics"
)

// TestPipelinedStressManyStreams is the staged engine's race stress test:
// 64 streams, 8 decode workers, 4 rounds in flight, stage metrics on, and
// concurrent gate-state readers — run under `go test -race` (see Makefile
// `race` target) this validates the gate's mutex against readers outside the
// engine and the collector topology end to end.
func TestPipelinedStressManyStreams(t *testing.T) {
	const m, rounds, workers, k = 64, 120, 8, 4
	g, err := core.NewGate(core.Config{Streams: m, Budget: 24, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	stages := &metrics.StageSet{}
	eng, err := New(Config{
		Source:              NewLocalSource(mkFleet(m, 99), rounds),
		Gate:                g,
		Task:                infer.PersonCounting{},
		Workers:             workers,
		MaxInFlight:         k,
		Pipelined:           true,
		LatencyNanosPerUnit: 20_000, // keep decoders busy enough to overlap
		Stages:              stages,
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = g.Stats()
				_ = g.Pending()
				_ = g.Confidence(w * 16)
				_ = stages.Decode.Snapshot()
				time.Sleep(50 * time.Microsecond) // don't starve the pipeline on small hosts
			}
		}(w)
	}
	rep, err := eng.Run(0)
	close(stop)
	readers.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != rounds {
		t.Fatalf("rounds = %d, want %d", rep.Rounds, rounds)
	}
	if rep.Packets != int64(m*rounds) {
		t.Errorf("packets = %d, want %d", rep.Packets, m*rounds)
	}
	if rep.Decoded == 0 {
		t.Error("nothing decoded")
	}
	st := g.Stats()
	if st.Rounds != rounds || st.Decoded != rep.Decoded {
		t.Errorf("gate stats %+v inconsistent with report %+v", st, rep)
	}
	if g.Pending() != 0 {
		t.Errorf("gate left %d rounds unacked", g.Pending())
	}
	for name, s := range map[string]metrics.StageSnapshot{
		"gate":   stages.Gate.Snapshot(),
		"decode": stages.Decode.Snapshot(),
		"infer":  stages.Infer.Snapshot(),
	} {
		if s.Enqueued != rounds || s.Done != rounds || s.Depth != 0 {
			t.Errorf("%s stage snapshot %+v, want %d enqueued/done and empty", name, s, rounds)
		}
	}
	if d := stages.Decode.Snapshot().MaxDepth; d < 2 || d > k {
		t.Errorf("decode stage max depth = %d, want within (1, %d]", d, k)
	}
}

// TestPipelinedStressDeterministicSchedule repeats the stress shape with
// instant decodes and nothing reading beside the run: the gate loop's Decide
// and Feedback interleave with decode/infer via the collector at full speed.
func TestPipelinedStressDeterministicSchedule(t *testing.T) {
	const m, rounds, workers, k = 64, 120, 8, 4
	g, err := core.NewGate(core.Config{Streams: m, Budget: 24, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{
		Source:      NewLocalSource(mkFleet(m, 99), rounds),
		Gate:        g,
		Task:        infer.PersonCounting{},
		Workers:     workers,
		MaxInFlight: k,
		Pipelined:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != rounds || rep.Packets != int64(m*rounds) {
		t.Fatalf("report %+v, want %d rounds, %d packets", rep, rounds, m*rounds)
	}
}
