package experiments

import (
	"errors"
	"io"
	"testing"

	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/decode"
	"packetgame/internal/infer"
	"packetgame/internal/knapsack"
	"packetgame/internal/pipeline"
)

// roundScript hands a fixed list of sparse rounds to the engine, as they are,
// without ground truth.
type roundScript struct {
	rounds []codec.Round
	next   int
}

func (s *roundScript) NextRoundSparse() (*codec.Round, error) {
	if s.next == len(s.rounds) {
		return nil, io.EOF
	}
	s.next++
	return &s.rounds[s.next-1], nil
}

func (s *roundScript) NextRound() ([]*codec.Packet, error) {
	return nil, errors.New("roundScript is pulled sparse")
}

func (s *roundScript) Truth(int) (codec.Scene, bool) { return codec.Scene{}, false }

// TestBadRoundsRejectedByEveryDecider runs a good round, a malformed one and
// another good one through the engine behind the gate, a round-robin
// baseline, and an Eval over that baseline. Every malformed shape — an id at
// the fleet width, a duplicated id, a nil packet, the wrong width — must end
// the run with an error, not a panic, and leave the report and the policy's
// counters exactly as the good round left them.
func TestBadRoundsRejectedByEveryDecider(t *testing.T) {
	const m = 8
	key := func(i int) *codec.Packet {
		return &codec.Packet{StreamID: i, Type: codec.PictureI, GOPSize: 5, Size: 1000}
	}
	good := codec.Round{M: m, IDs: []int32{0, 2, 5}, Pkts: []*codec.Packet{key(0), key(2), key(5)}}
	bad := map[string]codec.Round{
		"id at width":  {M: m, IDs: []int32{1, m}, Pkts: []*codec.Packet{key(1), key(1)}},
		"duplicate id": {M: m, IDs: []int32{3, 3}, Pkts: []*codec.Packet{key(3), key(3)}},
		"nil packet":   {M: m, IDs: []int32{4}, Pkts: []*codec.Packet{nil}},
		"wrong width":  {M: m + 1, IDs: []int32{1}, Pkts: []*codec.Packet{key(1)}},
	}
	type policy struct {
		decider core.Decider
		stats   func() core.Stats
	}
	policies := map[string]func(src *roundScript) policy{
		"gate": func(*roundScript) policy {
			g, err := core.NewGate(core.Config{Streams: m, Budget: 20, UseTemporal: true})
			if err != nil {
				t.Fatal(err)
			}
			return policy{g, g.Stats}
		},
		"baseline": func(*roundScript) policy {
			b := core.NewBaselineGate(m, decode.DefaultCosts, &knapsack.RoundRobin{}, nil, 20)
			return policy{b, b.Stats}
		},
		"eval": func(src *roundScript) policy {
			b := core.NewBaselineGate(m, decode.DefaultCosts, &knapsack.RoundRobin{}, nil, 20)
			ev := &Eval{Decider: b, ProbeEvery: 1, src: src, task: infer.PersonCounting{},
				costs: decode.NewMultiTracker(m, decode.DefaultCosts)}
			return policy{ev, b.Stats}
		},
	}
	for name, mk := range policies {
		for shape, rnd := range bad {
			src := &roundScript{rounds: []codec.Round{good, rnd, good}}
			p := mk(src)
			eng, err := pipeline.New(pipeline.Config{Source: src, Gate: p.decider, Task: infer.PersonCounting{}})
			if err != nil {
				t.Fatal(err)
			}
			if ev, ok := p.decider.(*Eval); ok {
				ev.fleet = eng.EnsureFleet(m)
			}
			rep, err := eng.Run(0)
			if err == nil {
				t.Errorf("%s/%s: the run accepted the malformed round", name, shape)
			}
			if rep.Rounds != 1 || rep.Packets != int64(good.Len()) {
				t.Errorf("%s/%s: report counts %d rounds, %d packets; want the good round's 1, %d",
					name, shape, rep.Rounds, rep.Packets, good.Len())
			}
			if st := p.stats(); st.Rounds != 1 || st.Packets != int64(good.Len()) {
				t.Errorf("%s/%s: policy counts %+v; want the good round's alone", name, shape, st)
			}
		}
	}
}
