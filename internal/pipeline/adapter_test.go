package pipeline

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/decode"
	"packetgame/internal/infer"
)

// scriptSource replays fixed dense rounds; it has no sparse form and no
// ground truth.
type scriptSource struct {
	rounds [][]*codec.Packet
	next   int
}

func (s *scriptSource) NextRound() ([]*codec.Packet, error) {
	if s.next == len(s.rounds) {
		return nil, io.EOF
	}
	s.next++
	return s.rounds[s.next-1], nil
}

func (s *scriptSource) Truth(int) (codec.Scene, bool) { return codec.Scene{}, false }

// scriptRounds draws rounds from a fleet and blanks the streams idle(r, i)
// names.
func scriptRounds(m, rounds int, idle func(r, i int) bool) [][]*codec.Packet {
	fleet := mkFleet(m, 7)
	out := make([][]*codec.Packet, rounds)
	for r := range out {
		out[r] = make([]*codec.Packet, m)
		for i, st := range fleet {
			if p := st.Next(); !idle(r, i) {
				out[r][i] = p
			}
		}
	}
	return out
}

func TestSparseReturnsSparseSourceItself(t *testing.T) {
	src := NewLocalSource(mkFleet(3, 1), 1)
	if got := Sparse(src); got != SparseRoundSource(src) {
		t.Errorf("Sparse wrapped a source that is already sparse: %T", got)
	}
	if _, ok := Sparse(denseOnly{src}).(*denseAdapter); !ok {
		t.Error("Sparse did not adapt a dense-only source")
	}
}

// TestAdapterRounds checks the Round the adapter builds from dense slices
// with nil holes, from an all-idle slice, and after a fuller round (its
// storage is reused).
func TestAdapterRounds(t *testing.T) {
	const m = 6
	rounds := scriptRounds(m, 3, func(r, i int) bool {
		return r == 1 || (r == 2 && i%2 == 0)
	})
	src := Sparse(&scriptSource{rounds: rounds})
	for r, dense := range rounds {
		rnd, err := src.NextRoundSparse()
		if err != nil {
			t.Fatal(err)
		}
		if err := rnd.Validate(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if rnd.M != m {
			t.Errorf("round %d: M = %d, want %d", r, rnd.M, m)
		}
		var want []int32
		for i, p := range dense {
			if p != nil {
				want = append(want, int32(i))
				if rnd.Get(int32(i)) != p {
					t.Errorf("round %d: stream %d's packet was not carried over", r, i)
				}
			}
		}
		if fmt.Sprint(rnd.IDs) != fmt.Sprint(want) {
			t.Errorf("round %d: ids %v, want %v", r, rnd.IDs, want)
		}
	}
	if _, err := src.NextRoundSparse(); err != io.EOF {
		t.Errorf("after the last round: %v, want io.EOF", err)
	}
}

// TestEngineDenseSourceEdges runs both overlap modes over a dense-only source
// whose rounds have nil holes and an all-idle round, and over one whose
// slices are not the gate's width: the first must count exactly the packets
// delivered, the second must fail with the gate's width error.
func TestEngineDenseSourceEdges(t *testing.T) {
	const m, rounds = 8, 12
	for _, pipelined := range []bool{false, true} {
		name := fmt.Sprintf("pipelined=%v", pipelined)
		script := scriptRounds(m, rounds, func(r, i int) bool { return r == 4 || (r+i)%3 == 0 })
		var packets int64
		for _, rnd := range script {
			for _, p := range rnd {
				if p != nil {
					packets++
				}
			}
		}
		var idleSel []int
		eng, err := New(Config{
			Source: &scriptSource{rounds: script}, Gate: mkGate(t, m, 3), Task: infer.PersonCounting{},
			Pipelined: pipelined, MaxInFlight: 2,
			OnRound: func(round int64, sel []int) {
				if round == 4 {
					idleSel = append(idleSel, sel...)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Run(0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Rounds != rounds || rep.Packets != packets {
			t.Errorf("%s: %d rounds, %d packets; want %d, %d", name, rep.Rounds, rep.Packets, rounds, packets)
		}
		if len(idleSel) != 0 {
			t.Errorf("%s: the all-idle round selected %v", name, idleSel)
		}

		for _, width := range []int{m - 1, m + 1} {
			eng, err := New(Config{
				Source: &scriptSource{rounds: scriptRounds(width, 2, func(int, int) bool { return false })},
				Gate:   mkGate(t, m, 3), Task: infer.PersonCounting{}, Pipelined: pipelined,
			})
			if err != nil {
				t.Fatal(err)
			}
			_, err = eng.Run(0)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("width %d for %d streams", width, m)) {
				t.Errorf("%s: width-%d rounds into a %d-stream gate: %v, want the gate's width error", name, width, m, err)
			}
		}
	}
}

// spyGate is a Decider that embeds *core.Gate and overrides both protocol
// methods — the shape of a tracing or timing wrapper. The engine must reach
// the gate through the wrapper's two methods; the Decider interface leaves it
// no other way in.
type spyGate struct {
	*core.Gate

	mu      sync.Mutex
	decided [][]int // selection of every round, in call order
	acked   [][]int // selection of every ack, in call order
}

func (g *spyGate) DecideSparseAppend(r *codec.Round, dst []int) ([]int, error) {
	sel, err := g.Gate.DecideSparseAppend(r, dst)
	g.mu.Lock()
	g.decided = append(g.decided, append([]int(nil), sel...))
	g.mu.Unlock()
	return sel, err
}

func (g *spyGate) FeedbackFull(sel []int, necessary, failed, deferred []bool) error {
	g.mu.Lock()
	g.acked = append(g.acked, append([]int(nil), sel...))
	g.mu.Unlock()
	return g.Gate.FeedbackFull(sel, necessary, failed, deferred)
}

// TestWrappedGateSeesEveryRoundAndAck is the contract an embedding wrapper
// depends on: from both engines, over both a dense-only and a sparse source,
// the wrapper's DecideSparseAppend sees every round once, in round order,
// its FeedbackFull sees every round's ack once, in the same order, and the
// decisions are those of the bare gate.
func TestWrappedGateSeesEveryRoundAndAck(t *testing.T) {
	const m, rounds, k = 16, 60, 3
	for _, pipelined := range []bool{false, true} {
		for _, dense := range []bool{false, true} {
			name := fmt.Sprintf("pipelined=%v/dense=%v", pipelined, dense)
			want, _, _ := runChurn(t, dense, pipelined, k, 4, m, rounds, 6, 301, 40)

			spy := &spyGate{Gate: mkGate(t, m, 6)}
			var src RoundSource = NewCameraSource(mkChurnFleet(m, 301, 40), rounds)
			if dense {
				src = denseOnly{src}
			}
			var onRound [][]int
			eng, err := New(Config{
				Source: src, Gate: spy, Task: infer.PersonCounting{},
				Workers: 4, MaxInFlight: k, Pipelined: pipelined,
				OnRound: func(_ int64, sel []int) { onRound = append(onRound, sel) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(0); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for what, got := range map[string][][]int{"rounds decided": spy.decided, "acks": spy.acked, "OnRound": onRound} {
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s: %s through the wrapper differ from the bare gate's %d decisions (got %d)", name, what, len(want), len(got))
				}
			}
		}
	}
}

// TestSettleMaskSizedOnce pins settle's selection mask to the fleet width: a
// round whose highest active id climbs (a rotating active window on its
// first turn) must not buy a new mask each round.
func TestSettleMaskSizedOnce(t *testing.T) {
	const m = 4096
	eng, err := New(Config{Source: &scriptSource{}, Gate: mkGate(t, m, 1), Task: infer.PersonCounting{}})
	if err != nil {
		t.Fatal(err)
	}
	eng.EnsureFleet(m)
	rw := &roundWork{m: m, ids: make([]int32, 1), pkts: []*codec.Packet{{}}, truth: make([]truthVal, 1), sel: make([]int, 1)}
	rnd := &codec.Round{M: m, IDs: rw.ids, Pkts: rw.pkts}
	var rep Report
	top := 0
	settle := func() {
		top += 16
		rw.ids[0], rw.sel[0] = int32(top), top
		rw.arm(rnd)
		rw.complete(decode.Completion{Slot: 0})
		eng.settle(&rep, rw)
	}
	settle() // first round sizes the mask and the recycled buffers
	if allocs := testing.AllocsPerRun(200, settle); allocs != 0 {
		t.Errorf("settle allocates %.1f objects per round while the top active id climbs", allocs)
	}
	if rep.Rounds != 202 || top >= m {
		t.Fatalf("rounds = %d, top = %d", rep.Rounds, top)
	}
}
