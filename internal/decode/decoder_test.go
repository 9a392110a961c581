package decode

import (
	"errors"
	"testing"

	"packetgame/internal/codec"
)

func TestDecoderRoundTrip(t *testing.T) {
	st := codec.NewStream(codec.SceneConfig{BaseActivity: 0.5}, codec.EncoderConfig{StreamID: 2, GOPSize: 5}, 21)
	d := NewDecoder(DefaultCosts)
	for i := 0; i < 30; i++ {
		p := st.Next()
		f, err := d.Decode(p)
		if err != nil {
			t.Fatal(err)
		}
		if f.Scene != st.LastScene {
			t.Fatalf("frame %d: scene %+v, want %+v", i, f.Scene, st.LastScene)
		}
		if f.StreamID != 2 || f.Seq != int64(i) {
			t.Fatalf("frame %d identity: %+v", i, f)
		}
	}
	frames, cost := d.Stats()
	if frames != 30 {
		t.Errorf("frames = %d, want 30", frames)
	}
	// 6 GOPs of 5: 6 I + 24 P.
	want := 6*DefaultCosts.I + 24*DefaultCosts.P
	if cost != want {
		t.Errorf("cost = %v, want %v", cost, want)
	}
}

func TestDecoderNoPayload(t *testing.T) {
	d := NewDecoder(DefaultCosts)
	_, err := d.Decode(&codec.Packet{})
	if !errors.Is(err, ErrNoPayload) {
		t.Errorf("err = %v, want ErrNoPayload", err)
	}
}

func TestDecoderBadPayload(t *testing.T) {
	d := NewDecoder(DefaultCosts)
	if _, err := d.Decode(&codec.Packet{Payload: []byte("garbage!!")}); err == nil {
		t.Error("garbage payload must error")
	}
}

func TestBurnDecoderDecodes(t *testing.T) {
	st := codec.NewStream(codec.SceneConfig{}, codec.EncoderConfig{GOPSize: 4}, 9)
	d := NewBurnDecoder(DefaultCosts, 1000)
	p := st.Next()
	f, err := d.Decode(p)
	if err != nil {
		t.Fatal(err)
	}
	if f.Scene != st.LastScene {
		t.Errorf("burn decoder corrupted scene")
	}
}

func TestPoolDecodesAll(t *testing.T) {
	st := codec.NewStream(codec.SceneConfig{}, codec.EncoderConfig{GOPSize: 6}, 13)
	pool := NewTaggedPool(NewDecoder(DefaultCosts), 4)
	const n = 200
	go func() {
		for i := 0; i < n; i++ {
			pool.Submit(Job{Slot: i, Pkt: st.Next()})
		}
		pool.Close()
	}()
	seen := map[int64]bool{}
	for c := range pool.Completions() {
		if c.Err != nil {
			t.Errorf("unexpected decode error: %v", c.Err)
		}
		if seen[c.Frame.Seq] {
			t.Errorf("duplicate frame seq %d", c.Frame.Seq)
		}
		seen[c.Frame.Seq] = true
	}
	if len(seen) != n {
		t.Errorf("decoded %d frames, want %d", len(seen), n)
	}
}

func TestPoolReportsErrors(t *testing.T) {
	pool := NewTaggedPool(NewDecoder(DefaultCosts), 2)
	pool.Submit(Job{Pkt: &codec.Packet{}}) // no payload
	pool.Close()
	var got error
	for c := range pool.Completions() {
		if c.Frame != (Frame{}) {
			t.Error("no frames expected")
		}
		got = c.Err
	}
	if !errors.Is(got, ErrNoPayload) {
		t.Errorf("pool error = %v, want ErrNoPayload", got)
	}
}

func TestPoolMinWorkers(t *testing.T) {
	pool := NewTaggedPool(NewDecoder(DefaultCosts), 0) // clamped to 1
	st := codec.NewStream(codec.SceneConfig{}, codec.EncoderConfig{GOPSize: 3}, 2)
	go func() {
		pool.Submit(Job{Pkt: st.Next()})
		pool.Close()
	}()
	n := 0
	for c := range pool.Completions() {
		if c.Err == nil {
			n++
		}
	}
	if n != 1 {
		t.Errorf("decoded %d frames, want 1", n)
	}
}
