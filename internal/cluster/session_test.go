package cluster

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"packetgame/internal/infer"
	"packetgame/internal/knapsack"
	"packetgame/internal/overload"
	"packetgame/internal/pipeline"
)

// decodeGrant decodes a grant into a message of its own (the scripted
// peers' convenience; the worker decodes into one it reuses).
func decodeGrant(body []byte, m int) (grantMsg, error) {
	var g grantMsg
	err := decodeGrantInto(body, m, &g)
	return g, err
}

// workerRig drives a worker's core on a virtual clock: no socket, no
// goroutine, no timer. The worker is built from a welcome (gate, fleet,
// engine — never run) and the test plays both the engine and the
// coordinator; the rig answers the core's orphan-source pulls itself.
type workerRig struct {
	t    *testing.T
	w    *Worker
	c    *wcore
	now  time.Time
	out  []effect
	prev []int32 // the coordinator's side of the session's delta coding
}

const rigWorker = 3

func newWorkerRig(t *testing.T, clock int64, standbys []string, orphan *OrphanOptions) *workerRig {
	t.Helper()
	w := &Worker{}
	wel := Welcome{WorkerID: rigWorker, Epoch: 1, CurrentRound: clock, Standbys: standbys,
		Cfg: ClusterConfig{Streams: 16, Window: 4, Budget: 6, Task: "pc", UseTemporal: true}}
	if err := w.build(wel, WorkerOptions{Name: "w", Orphan: orphan}); err != nil {
		t.Fatal(err)
	}
	w.core.conn = 1
	return &workerRig{t: t, w: w, c: w.core, now: time.Unix(1000, 0)}
}

// step hands the core ev a millisecond after the last one, answers any
// orphan-source pull, and returns every effect, bodies copied.
func (g *workerRig) step(ev event) []effect {
	var all []effect
	for {
		g.now = g.now.Add(time.Millisecond)
		g.out = g.c.step(g.now, ev, g.out)
		pulled := false
		for _, e := range g.out {
			e.body = slices.Clone(e.body)
			all = append(all, e)
			if e.kind == effPull {
				rnd, err := g.w.src.NextRoundSparse()
				ev, pulled = event{kind: evRound, rnd: rnd, err: err}, true
			}
		}
		if !pulled {
			return all
		}
	}
}

func (g *workerRig) frame(conn connID, typ uint8, body []byte) []effect {
	return g.step(event{kind: evFrame, conn: conn, typ: typ, body: body})
}

// round sends round r with the given streams active on conn 1.
func (g *workerRig) round(r int64, bEff float64, ids ...int) []effect {
	pkts := recordRoundPkts(len(ids), func(k int) int32 { return int32(ids[k]) }, 8, 2, byte(r))
	body := encodeRoundDelta(nil, r, bEff, overload.ModeFull, pkts, g.prev)
	g.prev = streamsOf(pkts)
	return g.frame(1, fRound, body)
}

func (g *workerRig) pull() []effect { return g.step(event{kind: evPull}) }

// offer asks for a selection over unit-cost candidates of the given streams.
func (g *workerRig) offer(ids ...int) []effect {
	var cands []knapsack.Candidate
	for _, id := range ids {
		cands = append(cands, knapsack.Candidate{Stream: int32(id), Value: float64(1 + id), Cost: 1})
	}
	return g.step(event{kind: evSelect, cands: cands, budget: 2})
}

// helloOf decodes the re-join hello a dial effect carries.
func helloOf(t *testing.T, d effect) (info RejoinInfo) {
	t.Helper()
	if d.typ != fRejoin {
		t.Fatalf("dial with hello frame %d, want a re-join", d.typ)
	}
	if err := gobDecode(d.body, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

// dialedWith is a dial answered on conn with the verdict tk.
func dialedWith(t *testing.T, conn connID, tk TakeoverInfo) event {
	return event{kind: evDialed, conn: conn, typ: fTakeover, body: mustGob(t, &tk)}
}

func only(t *testing.T, effs []effect, kind effKind) effect {
	t.Helper()
	var found []effect
	for _, e := range effs {
		if e.kind == kind {
			found = append(found, e)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%d effects of kind %d in %+v, want one", len(found), kind, effs)
	}
	return found[0]
}

func sent(effs []effect, typ uint8) (bodies [][]byte) {
	for _, e := range effs {
		if e.kind == effSend && e.typ == typ {
			bodies = append(bodies, e.body)
		}
	}
	return bodies
}

// playRound is one round as the engine sees it: it pulls (reporting the
// round before), round r arrives, it selects, and grant is granted.
func (g *workerRig) playRound(r int64, ids []int, grant []int) {
	g.t.Helper()
	effs := append(g.pull(), g.round(r, 4, ids...)...)
	if e := only(g.t, effs, effRound); e.err != nil || e.round != r || len(e.rnd.IDs) != len(ids) {
		g.t.Fatalf("round %d handed as %+v", r, e)
	}
	g.offer(ids...)
	only(g.t, g.frame(1, fGrant, encodeGrant(nil, r, grant)), effSelect)
}

// TestWorkerCore drives the worker's half of the protocol on a virtual clock,
// one scenario a row: what no socket test can pin — which frame goes out at
// which step, the observation watermark, the exact re-join schedule, the
// orphan budget's fallbacks.
func TestWorkerCore(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"steady round, the watermark moves only on a delivered report", func(t *testing.T) {
			g := newWorkerRig(t, 0, []string{"sb:1"}, nil)
			if effs := g.round(0, 4, 1, 2, 3); len(effs) != 0 {
				t.Fatalf("a round frame with no pull in progress did %+v", effs)
			}
			g.c.accBase = AccDeltas{PosRounds: 2} // observations made during round 0
			first := g.pull()
			if e := only(t, first, effRound); e.err != nil || e.round != 0 || !slices.Equal(e.rnd.IDs, []int32{1, 2, 3}) {
				t.Fatalf("round 0 handed as %+v", e)
			}
			if len(sent(first, fReport)) != 0 {
				t.Fatal("a report before any round was played")
			}
			cands := sent(g.offer(1, 2, 3), fCandidates)
			var cm candidatesMsg
			if len(cands) != 1 || decodeCandidates(cands[0], 16, &cm) != nil || cm.round != 0 || len(cm.cands) != 3 || cm.offered != 3 {
				t.Fatalf("candidates %+v", cm)
			}
			if e := only(t, g.frame(1, fGrant, encodeGrant(nil, 0, []int{2, 1})), effSelect); !slices.Equal(e.sel, []int{2, 1}) {
				t.Fatalf("selection %v, want the grant's [2 1]", e.sel)
			}
			reports := sent(g.pull(), fReport)
			msg, err := decodeReport(reports[0])
			if len(reports) != 1 || err != nil || msg.round != 0 || msg.deltas.PosRounds != 2 || msg.latency != 3*time.Millisecond {
				t.Fatalf("report %+v, %v", msg, err)
			}
			if g.c.lastReported.PosRounds != 2 {
				t.Fatalf("watermark %+v after a delivered report", g.c.lastReported)
			}
			// Round 1 settles after the session died: no report goes out, the
			// watermark stays, and the deltas ride the re-join hello.
			g.round(1, 4, 1, 2)
			g.offer(1, 2)
			g.frame(1, fGrant, encodeGrant(nil, 1, []int{1}))
			g.c.accBase = AccDeltas{PosRounds: 5}
			g.step(event{kind: evClosed, conn: 1, err: errors.New("gone")})
			effs := g.pull()
			if len(sent(effs, fReport)) != 0 || g.c.lastReported.PosRounds != 2 {
				t.Fatalf("report on a dead session: %+v, watermark %+v", effs, g.c.lastReported)
			}
			if d := only(t, effs, effDial); d.addr != "sb:1" || helloOf(t, d).Deltas.PosRounds != 3 || helloOf(t, d).Clock != 2 || helloOf(t, d).ReconcileOnly {
				t.Fatalf("re-join hello %+v to %s", helloOf(t, d), d.addr)
			}
		}},
		{"session lost with a round delivered: the round is still played", func(t *testing.T) {
			g := newWorkerRig(t, 0, []string{"sb:1"}, nil)
			g.playRound(0, []int{4, 5}, []int{4})
			g.round(1, 4, 4, 5, 6)
			g.step(event{kind: evClosed, conn: 1, err: errors.New("gone")})
			// The round 1 frame was in the inbox when the death came: played.
			effs := g.pull()
			if e := only(t, effs, effRound); e.round != 1 || len(e.rnd.IDs) != 3 {
				t.Fatalf("delivered round handed as %+v", e)
			}
			// Its decision settles locally: no coordinator to ask.
			if e := only(t, g.offer(4, 5, 6), effSelect); len(e.sel) != 2 || e.sel[0] != 6 {
				t.Fatalf("local selection %v, want the greedy's two best [6 5]", e.sel)
			}
			if d := only(t, g.pull(), effDial); helloOf(t, d).Clock != 2 {
				t.Fatalf("re-join after the delivered round at clock %d, want 2", helloOf(t, d).Clock)
			}
		}},
		{"re-join sweep: backoff timers, then an accepted takeover", func(t *testing.T) {
			g := newWorkerRig(t, 5, []string{"a", "b"}, nil)
			g.playRound(5, []int{1, 2}, []int{2})
			g.step(event{kind: evClosed, conn: 1, err: errors.New("gone")})
			effs := g.pull()
			for attempt := 0; attempt < 2; attempt++ {
				for _, addr := range []string{"a", "b"} {
					if d := only(t, effs, effDial); d.addr != addr || helloOf(t, d).Clock != 6 || helloOf(t, d).WorkerID != rigWorker {
						t.Fatalf("sweep %d: dial %s %+v, want %s", attempt, d.addr, helloOf(t, d), addr)
					}
					effs = g.step(event{kind: evDialed, err: errors.New("refused")})
				}
				want := g.now.Add(rejoinBackoff(rejoinBase, rigWorker, attempt))
				if e := only(t, effs, effTimer); !e.at.Equal(want) {
					t.Fatalf("sweep %d: timer at %v, want %v", attempt, e.at, want)
				}
				effs = g.step(event{kind: evTimer})
			}
			g.frame(8, fRound, nil) // not the session's conn: ignored
			effs = g.step(dialedWith(t, 9, TakeoverInfo{Accepted: true, Epoch: 7, Standbys: []string{"c"}}))
			if len(effs) != 0 || g.c.conn != 9 || !g.c.open || g.c.epoch != 7 || !slices.Equal(g.c.standbys, []string{"c"}) || len(g.c.prevIDs) != 0 {
				t.Fatalf("after the takeover: %+v, conn %d epoch %d standbys %v membership %v", effs, g.c.conn, g.c.epoch, g.c.standbys, g.c.prevIDs)
			}
			// The new session's delta coding starts from the empty set.
			pkts := recordRoundPkts(2, func(k int) int32 { return int32(1 + k) }, 8, 0, 1)
			effs = g.frame(9, fRound, encodeRoundDelta(nil, 6, 4, overload.ModeFull, pkts, nil))
			if e := only(t, effs, effRound); e.round != 6 || len(e.rnd.IDs) != 2 {
				t.Fatalf("first round of the new session: %+v", e)
			}
		}},
		{"re-join sweep: every sweep fails", func(t *testing.T) {
			g := newWorkerRig(t, 0, []string{"a"}, nil)
			g.step(event{kind: evClosed, conn: 1, err: errors.New("gone")})
			effs := g.pull()
			for attempt := 0; ; attempt++ {
				only(t, effs, effDial)
				effs = g.step(event{kind: evDialed, err: errors.New("refused")})
				if attempt == rejoinAttempts-1 {
					break
				}
				if e := only(t, effs, effTimer); !e.at.Equal(g.now.Add(rejoinBackoff(rejoinBase, rigWorker, attempt))) {
					t.Fatalf("sweep %d: timer at %v", attempt, e.at)
				}
				effs = g.step(event{kind: evTimer})
			}
			if e := only(t, effs, effDone); e.err == nil || !strings.Contains(e.err.Error(), "no standby accepted") {
				t.Fatalf("after %d sweeps: %v", rejoinAttempts, e.err)
			}
			if e := only(t, effs, effRound); e.err == nil {
				t.Fatal("the engine's pull went unanswered")
			}
		}},
		{"re-join sweep: a rejected reply ends it", func(t *testing.T) {
			g := newWorkerRig(t, 0, []string{"a", "b"}, nil)
			g.step(event{kind: evClosed, conn: 1, err: errors.New("gone")})
			only(t, g.pull(), effDial)
			effs := g.step(dialedWith(t, 2, TakeoverInfo{Reason: "not a member"}))
			if !slices.ContainsFunc(effs, func(e effect) bool { return e.kind == effClose && e.conn == 2 }) {
				t.Fatalf("the rejecting connection left open: %+v", effs)
			}
			if e := only(t, effs, effDone); e.err == nil || !strings.Contains(e.err.Error(), "not a member") {
				t.Fatalf("done with %v", e.err)
			}
			if e := only(t, effs, effRound); e.err == nil {
				t.Fatal("the engine's pull went unanswered")
			}
		}},
		{"orphan rounds, then reconcile-only closes its session", func(t *testing.T) {
			src := pipeline.NewLocalSource(mkFleet(16, 5), 0)
			g := newWorkerRig(t, 0, []string{"sb"}, &OrphanOptions{Source: src, Rounds: 2})
			g.playRound(0, []int{2, 7, 9}, []int{7})
			g.step(event{kind: evClosed, conn: 1, err: errors.New("gone")})
			for r := int64(1); r <= 2; r++ {
				e := only(t, g.pull(), effRound)
				if e.round != r || !slices.Equal(e.rnd.IDs, []int32{2, 7, 9}) || g.c.rec.mode != overload.ModeTemporalOnly {
					t.Fatalf("orphan round %d: %+v over %v", r, e, e.rnd.IDs)
				}
				g.offer(2, 7, 9)
			}
			d := only(t, g.pull(), effDial)
			if !helloOf(t, d).ReconcileOnly || helloOf(t, d).Clock != 3 {
				t.Fatalf("reconcile hello %+v", helloOf(t, d))
			}
			effs := g.step(dialedWith(t, 4, TakeoverInfo{Accepted: true}))
			if e := only(t, effs, effClose); e.conn != 4 {
				t.Fatalf("closed conn %d, want the reconcile's", e.conn)
			}
			if e := only(t, effs, effRound); e.err == nil || e.rnd != nil {
				t.Fatalf("orphan retirement handed %+v, want the end", e)
			}
			if or := g.c.orphanR; !or.Entered || or.Rounds != 2 || !or.Reconciled || or.Decoded != 4 {
				t.Fatalf("orphan report %+v", or)
			}
		}},
		{"orphan budget: the grant EWMA, else the planned share, else the budget", func(t *testing.T) {
			src := func() *OrphanOptions {
				return &OrphanOptions{Source: pipeline.NewLocalSource(mkFleet(16, 5), 0), Rounds: 1}
			}
			orphanBudget := func(g *workerRig) float64 {
				g.step(event{kind: evClosed, conn: 1, err: errors.New("gone")})
				only(t, g.pull(), effRound)
				return g.c.rec.bEff
			}
			g := newWorkerRig(t, 0, nil, src())
			g.playRound(0, []int{1, 2, 3}, []int{1, 2})
			g.playRound(1, []int{1, 2, 3}, []int{3})
			if got, want := orphanBudget(g), 2+demandAlpha*(1-2); got != want {
				t.Fatalf("after grants of cost 2 then 1: orphan budget %v, want the EWMA %v", got, want)
			}
			g = newWorkerRig(t, 0, nil, src())
			g.round(0, 4.5, 1, 2)
			g.pull()
			if got := orphanBudget(g); got != 4.5 {
				t.Fatalf("never granted: orphan budget %v, want the planned 4.5", got)
			}
			g = newWorkerRig(t, 0, nil, src())
			if got := orphanBudget(g); got != 6 {
				t.Fatalf("never started: orphan budget %v, want the configured 6", got)
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

// TestWorkerCoreRejects: a frame the protocol does not allow at that step
// ends the worker with an error, and the engine's call in progress is still
// answered — never a panic, never a double count.
func TestWorkerCoreRejects(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		typ        uint8
		body       func(g *workerRig) []byte
	}{
		{"grant names a stream not offered", "not on offer", fGrant, func(*workerRig) []byte { return encodeGrant(nil, 0, []int{2, 11}) }},
		{"grant names a stream twice", "named twice", fGrant, func(*workerRig) []byte { return encodeGrant(nil, 0, []int{2, 3, 2}) }},
		{"grant for another round", "grant for round 1", fGrant, func(*workerRig) []byte { return encodeGrant(nil, 1, []int{2}) }},
		{"control frame while a grant is awaited", "while awaiting a grant", fImportFresh, func(*workerRig) []byte {
			body, _ := encodeCtrl(1, &[]int{5})
			return body
		}},
		// Between rounds, so the frame is served: the monitor counts more
		// correct rounds than rounds, and nothing may move before that is seen.
		{"adopted monitor state is malformed", "monitor state", fState, func(g *workerRig) []byte {
			st, err := g.c.gate.ExportStream(5)
			if err != nil {
				g.t.Fatal(err)
			}
			body, _ := encodeCtrl(1, &[]StreamBlob{{Stream: 5, Gate: st}, {Stream: 6, Gate: st, Monitor: infer.MonitorState{PosRounds: 1, PosCorrect: 2}}})
			return body
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newWorkerRig(t, 0, []string{"sb"}, nil)
			g.round(0, 4, 2, 3, 4)
			g.pull()
			idle := tc.typ == fState
			if !idle {
				g.offer(2, 3, 4)
			}
			base := g.c.accBase
			effs := g.frame(1, tc.typ, tc.body(g))
			if e := only(t, effs, effDone); e.err == nil || !strings.Contains(e.err.Error(), tc.want) {
				t.Fatalf("done with %v, want an error naming %q", e.err, tc.want)
			}
			if g.c.accBase != base || g.c.owned[5] || g.c.owned[6] {
				t.Fatalf("refused frame moved the books: accBase %+v (was %+v), owned %v", g.c.accBase, base, g.c.owned)
			}
			if !idle {
				if e := only(t, effs, effSelect); len(e.sel) != 0 {
					t.Fatalf("selection %v handed after a protocol error", e.sel)
				}
			}
			only(t, effs, effClose)
			if e := only(t, g.pull(), effRound); e.err == nil {
				t.Fatal("the engine pulled on after the end")
			}
		})
	}
}

// TestWorkerRejectsBadGrant scripts a coordinator over a real socket that
// grants what the worker never offered: the worker must end with an error.
// Applied unchecked, the first grant would index the round's packets at -1
// and take the process down; the second would decode one packet twice.
func TestWorkerRejectsBadGrant(t *testing.T) {
	for _, tc := range []struct {
		name  string
		grant func(offered []int) []int
	}{
		{"not offered", func(offered []int) []int { return []int{15} }},
		{"twice", func(offered []int) []int { return []int{offered[0], offered[0]} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			served := make(chan error, 1)
			go func() { served <- scriptBadGrant(ln, tc.grant) }()
			w, err := Dial(ln.Addr().String(), WorkerOptions{Name: "w"})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Wait(); err == nil || !strings.Contains(err.Error(), "grant names stream") {
				t.Fatalf("worker ended with %v, want the bad grant rejected", err)
			}
			if err := <-served; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// scriptBadGrant welcomes one worker, sends it a round of four streams,
// answers its candidates with grant(offered), and waits for it to hang up.
func scriptBadGrant(ln net.Listener, grant func(offered []int) []int) error {
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	p, err := acceptLink(conn)
	if err != nil {
		return err
	}
	defer p.close()
	wel, _ := gobEncode(&Welcome{WorkerID: 0, Epoch: 1, Cfg: ClusterConfig{Streams: 16, Window: 4, Budget: 8,
		Task: "pc", UseTemporal: true, HeartbeatEvery: time.Hour}})
	pkts := recordRoundPkts(4, func(k int) int32 { return int32(2 * k) }, 64, 0, 1)
	if p.send(fWelcome, wel) != nil || p.send(fRound, encodeRoundDelta(nil, 0, 8, overload.ModeFull, pkts, nil)) != nil {
		return errors.New("script: send failed")
	}
	for {
		typ, body, err := p.recv(10*time.Second, nil)
		if err != nil {
			return fmt.Errorf("script: awaiting candidates: %w", err)
		}
		if typ != fCandidates {
			continue
		}
		var cm candidatesMsg
		if err := decodeCandidates(body, 16, &cm); err != nil || len(cm.cands) == 0 {
			return fmt.Errorf("script: candidates %+v, %v", cm.cands, err)
		}
		var offered []int
		for _, c := range cm.cands {
			offered = append(offered, int(c.Stream))
		}
		p.send(fGrant, encodeGrant(nil, 0, grant(offered)))
		break
	}
	for { // the worker hangs up
		if _, _, err := p.recv(10*time.Second, nil); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return errors.New("script: the worker never hung up")
			}
			return nil
		}
	}
}

// TestWorkerCoreRoundZeroAlloc: a steady-state round costs the worker core
// nothing — a round frame installed into the record, the pull's report, the
// candidates, the grant checked against the offer and handed over — with
// membership churning between two alternating frames.
func TestWorkerCoreRoundZeroAlloc(t *testing.T) {
	const n = 256
	_, bodyA, bodyB, idsA, idsB := alternatingRounds(n, 32)
	w := &Worker{}
	wel := Welcome{WorkerID: 1, Cfg: ClusterConfig{Streams: 4*n + 2, Window: 4, Budget: 6, Task: "pc", UseTemporal: true}}
	if err := w.build(wel, WorkerOptions{}); err != nil {
		t.Fatal(err)
	}
	c := w.core
	c.conn, c.prevIDs = 1, append([]int32(nil), idsB...)
	type leg struct {
		body, grant []byte
		cands       []knapsack.Candidate
	}
	var legs [2]leg
	for i, l := range []struct {
		round int64
		body  []byte
		ids   []int32
	}{{10, bodyA, idsA}, {11, bodyB, idsB}} {
		legs[i].body = l.body
		for _, id := range l.ids {
			legs[i].cands = append(legs[i].cands, knapsack.Candidate{Stream: id, Value: 1, Cost: 1})
		}
		legs[i].grant = encodeGrant(nil, l.round, []int{int(l.ids[3]), int(l.ids[1])})
	}
	var out []effect
	now := time.Unix(1000, 0)
	dst := make([]int, 0, 8)
	pair := func() {
		for _, l := range legs {
			out = c.step(now, event{kind: evPull}, out)
			out = c.step(now, event{kind: evFrame, conn: 1, typ: fRound, body: l.body}, out)
			if len(out) != 1 || out[0].kind != effRound || out[0].rnd.Len() != n {
				t.Fatalf("round handed as %+v", out)
			}
			out = c.step(now, event{kind: evSelect, sel: dst, cands: l.cands, budget: 2}, out)
			out = c.step(now, event{kind: evFrame, conn: 1, typ: fGrant, body: l.grant}, out)
			if len(out) != 1 || out[0].kind != effSelect || len(out[0].sel) != 2 {
				t.Fatalf("grant handed as %+v", out)
			}
		}
	}
	pair() // warm-up: every buffer reaches its steady capacity
	if avg := testing.AllocsPerRun(20, pair); avg != 0 {
		t.Fatalf("a steady worker round allocates %.1f objects per pair of rounds", avg)
	}
}
