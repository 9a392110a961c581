package decode

import (
	"sort"
	"sync"
	"testing"

	"packetgame/internal/codec"
)

func poolStream(seed int64) *codec.Stream {
	return codec.NewStream(codec.SceneConfig{}, codec.EncoderConfig{GOPSize: 6}, seed)
}

// TestTaggedPoolReportsEveryCompletion submits tagged jobs across several
// rounds from a producer goroutine and checks that exactly one completion
// arrives per job, with its tags intact and its frame matching a direct
// decode.
func TestTaggedPoolReportsEveryCompletion(t *testing.T) {
	const roundsN, perRound = 20, 7
	st := poolStream(3)
	ref := NewDecoder(DefaultCosts)
	pool := NewTaggedPool(NewDecoder(DefaultCosts), 4)

	want := make(map[[2]int64]Frame)
	var jobs []Job
	for r := int64(0); r < roundsN; r++ {
		for s := 0; s < perRound; s++ {
			p := st.Next()
			f, err := ref.Decode(p)
			if err != nil {
				t.Fatal(err)
			}
			want[[2]int64{r, int64(s)}] = f
			jobs = append(jobs, Job{Round: r, Slot: s, Pkt: p})
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, j := range jobs {
			pool.Submit(j)
		}
		pool.Close()
	}()
	got := 0
	for c := range pool.Completions() {
		if c.Err != nil {
			t.Fatalf("round %d slot %d: %v", c.Round, c.Slot, c.Err)
		}
		key := [2]int64{c.Round, int64(c.Slot)}
		w, ok := want[key]
		if !ok {
			t.Fatalf("unexpected or duplicate completion for round %d slot %d", c.Round, c.Slot)
		}
		delete(want, key)
		if c.Frame != w {
			t.Fatalf("round %d slot %d: frame %+v, want %+v", c.Round, c.Slot, c.Frame, w)
		}
		got++
	}
	wg.Wait()
	if got != roundsN*perRound || len(want) != 0 {
		t.Fatalf("got %d completions, want %d (%d unmatched)", got, roundsN*perRound, len(want))
	}
}

// TestTaggedPoolDeliversErrors checks that failed decodes surface as tagged
// error completions rather than being dropped, so a collector can still
// account for the round.
func TestTaggedPoolDeliversErrors(t *testing.T) {
	st := poolStream(4)
	pool := NewTaggedPool(NewDecoder(DefaultCosts), 2)
	good := st.Next()
	bad := st.Next()
	bad.Payload = nil // gating-only parse: undecodable
	pool.Submit(Job{Round: 0, Slot: 0, Pkt: good})
	pool.Submit(Job{Round: 0, Slot: 1, Pkt: bad})
	pool.Close()
	var slots []int
	errs := 0
	for c := range pool.Completions() {
		slots = append(slots, c.Slot)
		if c.Err != nil {
			errs++
			if c.Slot != 1 {
				t.Errorf("error on slot %d, want slot 1", c.Slot)
			}
		}
	}
	sort.Ints(slots)
	if len(slots) != 2 || slots[0] != 0 || slots[1] != 1 {
		t.Fatalf("completions for slots %v, want [0 1]", slots)
	}
	if errs != 1 {
		t.Fatalf("%d error completions, want 1", errs)
	}
}
