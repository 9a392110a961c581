package pipeline

import (
	"io"
	"net"
	"testing"

	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/decode"
	"packetgame/internal/filter"
	"packetgame/internal/infer"
	"packetgame/internal/stream"
)

func mkFleet(m int, seed int64) []*codec.Stream {
	streams := make([]*codec.Stream, m)
	for i := range streams {
		streams[i] = codec.NewStream(
			codec.SceneConfig{BaseActivity: 0.5, PersonRate: 0.4},
			codec.EncoderConfig{StreamID: i, GOPSize: 10},
			seed+int64(i)*31)
	}
	return streams
}

func mkGate(t *testing.T, m int, budget float64) *core.Gate {
	t.Helper()
	g, err := core.NewGate(core.Config{Streams: m, Budget: budget, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config must error")
	}
}

func TestEngineLocalRun(t *testing.T) {
	const m, rounds = 8, 200
	src := NewLocalSource(mkFleet(m, 1), rounds)
	eng, err := New(Config{Source: src, Gate: mkGate(t, m, 4), Task: infer.PersonCounting{}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != rounds {
		t.Errorf("rounds = %d, want %d", rep.Rounds, rounds)
	}
	if rep.Packets != m*rounds {
		t.Errorf("packets = %d, want %d", rep.Packets, m*rounds)
	}
	if rep.Decoded == 0 || rep.Decoded >= rep.Packets {
		t.Errorf("decoded = %d of %d", rep.Decoded, rep.Packets)
	}
	if rep.GateFilterRate <= 0 || rep.GateFilterRate >= 1 {
		t.Errorf("filter rate = %v", rep.GateFilterRate)
	}
	if rep.Accuracy < 0 || rep.Accuracy > 1 {
		t.Errorf("accuracy = %v (local source has truth)", rep.Accuracy)
	}
	if rep.Inferred != rep.Decoded {
		t.Errorf("without a frame filter, inferred (%d) must equal decoded (%d)",
			rep.Inferred, rep.Decoded)
	}
}

func TestEngineMaxRoundsCap(t *testing.T) {
	const m = 4
	src := NewLocalSource(mkFleet(m, 2), 0) // unlimited source
	eng, err := New(Config{Source: src, Gate: mkGate(t, m, 3), Task: infer.PersonCounting{}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(50)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != 50 {
		t.Errorf("rounds = %d, want 50", rep.Rounds)
	}
}

func TestEngineWithFrameFilter(t *testing.T) {
	const m, rounds = 6, 300
	src := NewLocalSource(mkFleet(m, 3), rounds)
	eng, err := New(Config{
		Source: src, Gate: mkGate(t, m, 5), Task: infer.PersonCounting{},
		Filter: filter.NewReducto(0.4, 0, 7),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Filtered == 0 {
		t.Error("frame filter never fired")
	}
	if rep.Inferred+rep.Filtered != rep.Decoded {
		t.Errorf("inferred %d + filtered %d != decoded %d", rep.Inferred, rep.Filtered, rep.Decoded)
	}
}

func TestEngineBurnDecoder(t *testing.T) {
	const m, rounds = 4, 30
	src := NewLocalSource(mkFleet(m, 4), rounds)
	eng, err := New(Config{
		Source: src, Gate: mkGate(t, m, 8), Task: infer.PersonCounting{},
		BurnNanosPerUnit: 50_000, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DecodedFPS <= 0 {
		t.Errorf("decoded FPS = %v", rep.DecodedFPS)
	}
}

func TestEngineOverNetwork(t *testing.T) {
	const m, rounds = 3, 40
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := stream.Serve(ln, stream.ServerConfig{
		NewStreams: func() []*codec.Stream { return mkFleet(m, 5) },
		Rounds:     rounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := stream.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	eng, err := New(Config{
		Source: NewNetSource(client), Gate: mkGate(t, m, 3), Task: infer.AnomalyDetection{},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != rounds {
		t.Errorf("rounds = %d, want %d", rep.Rounds, rounds)
	}
	if rep.Decoded == 0 {
		t.Error("nothing decoded over the network path")
	}
}

func TestLocalSourceTruthMatchesPackets(t *testing.T) {
	src := NewLocalSource(mkFleet(2, 9), 5)
	d := decode.NewDecoder(decode.DefaultCosts)
	for {
		pkts, err := src.NextRound()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pkts {
			truth, ok := src.Truth(i)
			if !ok {
				t.Fatal("local source must have truth")
			}
			f, err := d.Decode(p)
			if err != nil {
				t.Fatal(err)
			}
			if f.Scene != truth {
				t.Fatalf("stream %d: truth %+v != decoded %+v", i, truth, f.Scene)
			}
		}
	}
}
