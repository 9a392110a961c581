package cluster

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"packetgame/internal/knapsack"
	"packetgame/internal/pipeline"
)

// scripted is a worker reduced to its frames: it answers each frame the
// coordinator sends it with the frame a real worker would send back, queued
// until the test delivers it. Candidate values are a fixed function of the
// stream and the round, so nothing but the coordinator's own plan can move a
// decision.
type scripted struct {
	conn   connID
	id     int
	silent bool    // answers nothing
	queue  []event // frames sent and not yet delivered, in send order
	prev   []int32
	msg    roundMsg
	fresh  []int // streams it was told to fresh-adopt
}

func (w *scripted) receive(t *testing.T, m int, typ uint8, body []byte) {
	t.Helper()
	frame := func(typ uint8, body []byte) {
		if !w.silent {
			w.queue = append(w.queue, event{kind: evFrame, conn: w.conn, typ: typ, body: body})
		}
	}
	switch typ {
	case fWelcome:
		var wel Welcome
		if err := gobDecode(body, &wel); err != nil {
			t.Fatal(err)
		}
		w.id = wel.WorkerID
	case fRound:
		if err := decodeRoundDelta(body, m, w.prev, &w.msg); err != nil {
			t.Fatal(err)
		}
		w.prev = append(w.prev[:0], w.msg.rnd.IDs...)
		var cands []knapsack.Candidate
		var offered float64
		for _, id := range w.msg.rnd.IDs {
			c := knapsack.Candidate{Stream: id, Value: float64(1+(int(id)*7+int(w.msg.round)*13)%17) / 8, Cost: float64(1 + id%3)}
			cands = append(cands, c)
			offered += c.Cost
		}
		frame(fCandidates, encodeCandidates(nil, w.msg.round, offered, cands))
	case fGrant:
		g, err := decodeGrant(body, m)
		if err != nil {
			t.Fatal(err)
		}
		frame(fReport, encodeReport(g.round, 0, AccDeltas{PosRounds: int64(len(g.streams)), PosCorrect: 1}))
	case fImportFresh, fRetire, fState:
		var ids []int
		var blobs []StreamBlob
		out := any(&ids)
		if typ == fState {
			out = &blobs
		}
		seq, err := decodeCtrl(body, out)
		if err != nil {
			t.Fatal(err)
		}
		if typ == fImportFresh {
			w.fresh = append(w.fresh, ids...)
		}
		if typ == fRetire {
			reply, _ := encodeCtrl(seq, &[]StreamBlob{})
			frame(fState, reply)
		} else {
			reply, _ := encodeCtrl(seq, nil)
			frame(fStateAck, reply)
		}
	case fGoodbye:
		fin, _ := gobEncode(&WorkerFinal{})
		frame(fFinal, fin)
	}
}

// coreRig drives a coordinator core on a virtual clock: no socket, no
// goroutine, no timer. It plays the shell — carrying out effects, pulling
// rounds from a local source — and the scripted workers, and keeps what the
// coordinator decided, copied out of its effects.
type coreRig struct {
	t     *testing.T
	c     *coord
	src   pipeline.SparseRoundSource
	now   time.Time
	out   []effect
	ws    []*scripted
	pull  bool
	done  bool
	err   error
	armed time.Time

	grants  [][]byte // every fGrant body, in send order
	sels    [][]int  // every OnRound selection
	journal [][]byte // every journal record, kind then body
	// late counts reports delivered after a later round's candidates.
	late, candRound int64
}

func newCoreRig(t *testing.T, p clusterParams, cfg CoordConfig) *coreRig {
	src := pipeline.Sparse(pipeline.NewLocalSource(mkFleet(p.m, p.seed), 0))
	cfg.JournalPath = "records only: the rig keeps them"
	cfg.OnRound = func(int64, []int) {}
	g := &coreRig{t: t, c: newCoord(cfg, src.Truth), src: src, now: time.Unix(1000, 0), candRound: -1}
	g.out = g.c.step(g.now, event{kind: evStart}, nil)
	g.apply()
	for i := 0; i < p.workers; i++ {
		w := &scripted{conn: connID(i + 1)}
		g.ws = append(g.ws, w)
		body, _ := gobEncode(&JoinInfo{Name: fmt.Sprintf("w%d", i)})
		g.step(event{kind: evHello, conn: w.conn, typ: fJoin, body: body})
	}
	return g
}

// stepAt hands the core ev at time at and carries out what it answers.
func (g *coreRig) stepAt(at time.Time, ev event) {
	g.now = at
	g.out = g.c.step(g.now, ev, g.out)
	g.apply()
}

func (g *coreRig) step(ev event) { g.stepAt(g.now.Add(time.Millisecond), ev) }

func (g *coreRig) apply() {
	for _, e := range g.out {
		switch e.kind {
		case effSend:
			if e.typ == fGrant {
				g.grants = append(g.grants, slices.Clone(e.body))
			}
			for _, w := range g.ws {
				if w.conn == e.conn {
					w.receive(g.t, g.c.cfg.Streams, e.typ, e.body)
				}
			}
		case effPull:
			g.pull = true
		case effTimer:
			g.armed = e.at
		case effJournal:
			g.journal = append(g.journal, append([]byte{e.typ}, e.body...))
		case effOnRound:
			g.sels = append(g.sels, slices.Clone(e.sel))
		case effDone:
			g.done, g.err = true, e.err
		}
	}
}

// pullRound hands the core the source's next round.
func (g *coreRig) pullRound() {
	g.pull = false
	rnd, err := g.src.NextRoundSparse()
	g.step(event{kind: evRound, rnd: rnd, err: err})
}

// deliver hands the core worker w's oldest undelivered frame.
func (g *coreRig) deliver(w *scripted) {
	ev := w.queue[0]
	w.queue = w.queue[1:]
	switch ev.typ {
	case fCandidates:
		var msg candidatesMsg
		if decodeCandidates(ev.body, g.c.cfg.Streams, &msg) == nil {
			g.candRound = max(g.candRound, msg.round)
		}
	case fReport:
		if msg, err := decodeReport(ev.body); err == nil && msg.round < g.candRound {
			g.late++
		}
	}
	g.step(ev)
}

// schedule orders deliveries across workers: candidates in the order cands
// names the workers, reports in the order reports does, and the reports of
// the workers in late held back until the coordinator has pulled the next
// round and every candidate on offer is in. Each worker's own frames keep
// their send order, as on a connection.
type schedule struct {
	cands, reports []int
	late           int // bit w: worker w's reports come late
}

func (g *coreRig) run(s schedule) {
	for !g.done {
		var best *scripted
		bestRank, bestKey := 1<<30, 0
		for w, sw := range g.ws {
			if len(sw.queue) == 0 {
				continue
			}
			rank, key := 0, w
			switch sw.queue[0].typ {
			case fCandidates:
				rank, key = 2, slices.Index(s.cands, w)
			case fReport:
				rank, key = 1, slices.Index(s.reports, w)
				if s.late>>w&1 == 1 {
					rank = 4
				}
			}
			if rank < bestRank || rank == bestRank && key < bestKey {
				best, bestRank, bestKey = sw, rank, key
			}
		}
		switch {
		case g.pull && bestRank > 3:
			g.pullRound()
		case best != nil:
			g.deliver(best)
		default:
			g.t.Fatalf("coordinator stalled: nothing to deliver, no round asked for")
		}
	}
	if g.err != nil {
		g.t.Fatalf("run ended with %v", g.err)
	}
}

func perms3() [][]int {
	return [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
}

// TestCoreArrivalOrderFree: the order candidates and reports arrive in
// cannot move a decision. Three scripted workers under an SLO whose budget
// governor is fed by a LatencyModel — so every observed report shapes later
// plans — play 12 rounds at feedback lag k ∈ {1, 2, 3} under every
// permutation of the candidates' arrival order, of the reports', and of which
// workers' reports land only after the next round's candidates. Every
// schedule gives the first one's grant frames, OnRound selections and
// journal records, byte for byte. Single-threaded, on a virtual clock: the
// arrival orders a socket test would have to be lucky to see.
func TestCoreArrivalOrderFree(t *testing.T) {
	p := clusterParams{m: 48, workers: 3, rounds: 12, window: 4, seed: 5, budget: 12}
	for _, lag := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("lag%d", lag), func(t *testing.T) {
			cfg := coordConfig(p)
			cfg.MaxInFlight = lag
			cfg.SLO = 2 * time.Millisecond
			cfg.LatencyModel = func(worker int, granted, offered float64) time.Duration {
				return time.Duration(granted * float64(600*time.Microsecond))
			}
			var ref *coreRig
			late := int64(0)
			for _, cp := range perms3() {
				for _, rp := range perms3() {
					for mask := 0; mask < 8; mask++ {
						g := newCoreRig(t, p, cfg)
						g.run(schedule{cands: cp, reports: rp, late: mask})
						late += g.late
						if ref == nil {
							ref = g
							continue
						}
						what := fmt.Sprintf("candidates %v, reports %v, late %03b", cp, rp, mask)
						if !reflect.DeepEqual(g.sels, ref.sels) {
							t.Fatalf("%s: OnRound selections differ\n%v\n%v", what, g.sels, ref.sels)
						}
						if !reflect.DeepEqual(g.grants, ref.grants) {
							t.Fatalf("%s: grant frames differ", what)
						}
						if !reflect.DeepEqual(g.journal, ref.journal) {
							t.Fatalf("%s: journal records differ", what)
						}
					}
				}
			}
			if len(ref.sels) != p.rounds || ref.c.rs.Rounds != int64(p.rounds) {
				t.Fatalf("%d selections, %d journaled rounds; want %d", len(ref.sels), ref.c.rs.Rounds, p.rounds)
			}
			// The governor must have moved, or the lag shaped nothing.
			plans := map[float64]bool{}
			for _, rec := range ref.journal {
				var rr roundRecord
				if rec[0] == jRound && gobDecode(rec[1:], &rr) == nil {
					plans[rr.BEff] = true
				}
			}
			if ref.c.rs.SLOMisses == 0 || len(plans) < 2 {
				t.Fatalf("governor never engaged: %d SLO misses, plans %v", ref.c.rs.SLOMisses, plans)
			}
			if lag > 1 && late == 0 {
				t.Fatal("no schedule delivered a report after a later round's candidates")
			}
		})
	}
}

// TestCoreLeaseExpiry pins the lease rule on the virtual clock: a worker
// whose last frame was at t is live at t + Lease − 1ns and dead at t + Lease
// while the coordinator awaits its candidates; that round solves over the
// other workers; and the next boundary reaps the dead one, fresh-adopts its
// arcs on the survivors and journals exactly one membership record.
func TestCoreLeaseExpiry(t *testing.T) {
	p := clusterParams{m: 48, workers: 3, rounds: 4, window: 4, seed: 5, budget: 12}
	cfg := coordConfig(p)
	cfg.Lease = time.Second
	g := newCoreRig(t, p, cfg)
	g.pullRound()
	quiet := g.ws[2]
	quiet.silent = true
	quiet.queue = nil // its candidates never leave
	var owned []int
	for s, o := range g.c.owners {
		if o == quiet.id {
			owned = append(owned, s)
		}
	}
	g.deliver(g.ws[0])
	g.deliver(g.ws[1])
	beat := g.now.Add(5 * time.Millisecond)
	g.stepAt(beat, event{kind: evFrame, conn: quiet.conn, typ: fHeartbeat, body: encodeReport(0, 0, AccDeltas{})})
	// The others beat on; their leases are not running (nothing is awaited of
	// them), and the timer stays on the quiet worker's.
	for _, w := range g.ws[:2] {
		g.stepAt(beat.Add(cfg.Lease/2), event{kind: evFrame, conn: w.conn, typ: fHeartbeat, body: encodeReport(0, 0, AccDeltas{})})
	}
	if want := beat.Add(cfg.Lease); !g.armed.Equal(want) {
		t.Fatalf("timer armed for %v, want the quiet worker's lease end %v", g.armed, want)
	}
	joins := len(g.journal)

	g.stepAt(beat.Add(cfg.Lease-time.Nanosecond), event{kind: evTimer})
	if m := g.c.members[quiet.id]; m.dead || len(g.sels) != 0 {
		t.Fatalf("worker dead=%v, %d rounds solved, one nanosecond before its lease ends", m.dead, len(g.sels))
	}
	g.stepAt(beat.Add(cfg.Lease), event{kind: evTimer})
	if m := g.c.members[quiet.id]; !m.dead || g.c.rep.DeadReasons[quiet.id] != "lease expired" {
		t.Fatalf("worker dead=%v (%q) when its lease ended", m.dead, g.c.rep.DeadReasons[quiet.id])
	}
	if len(g.sels) != 1 || len(g.sels[0]) == 0 {
		t.Fatalf("the round did not solve over the survivors: %v", g.sels)
	}
	for _, s := range g.sels[0] {
		if g.c.owners[s] == quiet.id {
			t.Fatalf("stream %d of the dead worker selected", s)
		}
	}

	g.run(schedule{cands: []int{0, 1, 2}, reports: []int{0, 1, 2}})
	var members []memberRecord
	for _, rec := range g.journal[joins:] {
		if rec[0] == jMember {
			var mr memberRecord
			if err := gobDecode(rec[1:], &mr); err != nil {
				t.Fatal(err)
			}
			members = append(members, mr)
		}
	}
	if len(members) != 1 || !slices.Equal(members[0].Died, []int{quiet.id}) || members[0].Round != 1 {
		t.Fatalf("membership records after the death: %+v; want one, reaping worker %d at round 1", members, quiet.id)
	}
	adopted := append(slices.Clone(g.ws[0].fresh), g.ws[1].fresh...)
	slices.Sort(adopted)
	if !slices.Equal(adopted, owned) || members[0].FreshAdoptions != int64(len(owned)) {
		t.Fatalf("survivors fresh-adopted %v (record: %d), the dead worker owned %v", adopted, members[0].FreshAdoptions, owned)
	}
	if g.c.rs.Rounds != int64(p.rounds) {
		t.Fatalf("%d rounds journaled, want %d", g.c.rs.Rounds, p.rounds)
	}
}

// TestCoreArmsNoPassedDeadline: a deadline that passes while the core waits
// on something else — a control exchange of an admission inside a quorum
// wait — arms no timer: the shell would fire it at once, and again after
// every event, until the exchange ends. The wait that owns the deadline
// sees it expired at its next check.
func TestCoreArmsNoPassedDeadline(t *testing.T) {
	c := newCoord(CoordConfig{Streams: 4}, nil)
	now := time.Unix(1000, 0)
	c.begin(now, nil)
	c.deadline = now.Add(-time.Second)
	c.wait(func() bool { return false }, func() {})
	for _, e := range c.end() {
		if e.kind == effTimer && !e.at.After(now) && !e.at.IsZero() {
			t.Fatalf("timer armed for %v, already past at %v", e.at, now)
		}
	}
}

// followRig drives a standby's core on a virtual clock, no socket: the test
// is the primary, on link 1, and reads what the core answers.
type followRig struct {
	t    *testing.T
	c    *coord
	cfg  CoordConfig
	snap replicaState // the image the primary offered
	t0   time.Time    // when the offer was stepped: the lease runs from here
	effs []effect
}

func newFollowRig(t *testing.T) *followRig {
	p := clusterParams{m: 48, workers: 2, rounds: 4, window: 4, seed: 5, budget: 12}
	g := &followRig{t: t, cfg: coordConfig(p), t0: time.Unix(1000, 0)}
	g.cfg.Lease, g.cfg.JoinTimeout, g.cfg.RejoinWait = time.Second, 3*time.Second, 2*time.Second
	g.c = newCoord(g.cfg, nil)
	g.c.enter = func() { g.c.follow("primary:1", StandbyJoin{Name: "sb", Addr: "sb:2"}) }
	g.snap = *g.c.rs
	g.snap.Members, g.snap.NextID, g.snap.Epoch, g.snap.Round = []memberInfo{{ID: 0, Name: "w0"}, {ID: 1, Name: "w1"}}, 2, 2, 7
	g.step(g.t0, event{kind: evStart})
	d := only(t, g.effs, effDial)
	var join StandbyJoin
	if d.addr != "primary:1" || d.typ != fStandbyJoin || gobDecode(d.body, &join) != nil || join.Addr != "sb:2" || !d.at.Equal(g.t0.Add(g.cfg.JoinTimeout)) {
		t.Fatalf("follow dial %+v (hello %+v)", d, join)
	}
	g.step(g.t0, event{kind: evDialed, conn: 1, typ: fSnapshotOffer, body: mustGob(t, &g.snap)})
	g.armed(g.t0.Add(g.cfg.Lease))
	return g
}

func (g *followRig) step(at time.Time, ev event) { g.effs = g.c.step(at, ev, g.effs) }

// frame steps a frame from the primary at t0 + d.
func (g *followRig) frame(d time.Duration, typ uint8, body []byte) {
	g.step(g.t0.Add(d), event{kind: evFrame, conn: 1, typ: typ, body: body})
}

// appendRecord is the fJournalAppend body mirroring one journal record.
func (g *followRig) appendRecord(kind uint8, rec any) []byte {
	return append([]byte{kind}, mustGob(g.t, rec)...)
}

func (g *followRig) armed(at time.Time) {
	g.t.Helper()
	if e := only(g.t, g.effs, effTimer); !e.at.Equal(at) {
		g.t.Fatalf("timer armed for %v, want %v", e.at, at)
	}
}

func (g *followRig) following() {
	g.t.Helper()
	if g.c.primary != 1 || g.c.elected || g.c.over {
		g.t.Fatalf("following link %d, elected=%v over=%v, want still following; effects %+v", g.c.primary, g.c.elected, g.c.over, g.effs)
	}
}

// elected checks the step just taken took over: the primary's link hung up,
// the epoch one past the image's, the re-join window armed from now.
func (g *followRig) elected(now time.Time) {
	g.t.Helper()
	if !g.c.elected || g.c.primary != 0 || g.c.over || g.c.epoch != g.snap.Epoch+1 {
		g.t.Fatalf("elected=%v following link %d over=%v epoch %d, want a takeover at epoch %d", g.c.elected, g.c.primary, g.c.over, g.c.epoch, g.snap.Epoch+1)
	}
	if e := only(g.t, g.effs, effClose); e.conn != 1 {
		g.t.Fatalf("hung up on link %d, want the primary's", e.conn)
	}
	g.armed(now.Add(g.cfg.RejoinWait))
}

// ended checks the run ended in this step, with an error naming want ("":
// none), and that nothing was elected.
func (g *followRig) ended(want string) {
	g.t.Helper()
	e := only(g.t, g.effs, effDone)
	if g.c.elected || (want == "") != (e.err == nil) || e.err != nil && !strings.Contains(e.err.Error(), want) {
		g.t.Fatalf("run ended with %v, elected=%v; want an end naming %q", e.err, g.c.elected, want)
	}
}

// TestCoreElection steps a standby's following phase on a virtual clock: the
// offer becomes the replica, appends keep it current, every primary frame
// renews the lease, and the lease is judged at each step's now — a step at
// or past its end elects unless it brings a primary frame, which is taken
// whenever it is stepped (as a member's frame renews its lease before settle
// judges it). A goodbye stands down; a broken journal stream, or a frame the
// phase has no use for, ends the run.
func TestCoreElection(t *testing.T) {
	lease := time.Second
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, g *followRig)
	}{
		{"offer, then one append", func(t *testing.T, g *followRig) {
			if g.c.rs.Round != g.snap.Round || len(g.c.rs.Members) != 2 {
				t.Fatalf("replica %+v, want the offered image", g.c.rs)
			}
			g.frame(time.Millisecond, fJournalAppend, g.appendRecord(jRound, &roundRecord{Round: 7, Sel: []int{3, 9}}))
			g.following()
			if g.c.rs.Rounds != 1 || g.c.rs.Round != 8 || g.c.rs.Decoded != 2 || g.c.rs.Hash == g.snap.Hash {
				t.Fatalf("replica after the append: %+v", g.c.rs)
			}
			g.armed(g.t0.Add(time.Millisecond + lease))
		}},
		{"silence to lease - 1ns, then a heartbeat re-arms", func(t *testing.T, g *followRig) {
			g.step(g.t0.Add(lease-time.Nanosecond), event{kind: evTimer})
			g.following()
			g.frame(lease-time.Nanosecond, fHeartbeat, nil)
			g.following()
			g.armed(g.t0.Add(2*lease - time.Nanosecond))
		}},
		{"expiry elects", func(t *testing.T, g *followRig) {
			g.step(g.t0.Add(lease), event{kind: evTimer})
			g.elected(g.t0.Add(lease))
		}},
		{"a hello at the lease end elects, and waits in the window", func(t *testing.T, g *followRig) {
			g.step(g.t0.Add(lease/2), event{kind: evHello, conn: 5, typ: fRejoin, body: mustGob(t, &RejoinInfo{WorkerID: 9})})
			g.following()
			g.step(g.t0.Add(lease), event{kind: evHello, conn: 6, typ: fJoin, body: mustGob(t, &JoinInfo{})})
			if !g.c.elected || len(g.c.pending) != 1 || g.c.pending[0].conn != 6 {
				t.Fatalf("elected=%v, pending %+v: want the join queued, worker 9's re-join refused", g.c.elected, g.c.pending)
			}
			if bodies := sent(g.effs, fTakeover); len(bodies) != 1 {
				t.Fatalf("%d re-join verdicts, want the stranger refused", len(bodies))
			}
		}},
		{"the primary's link dies: elected at once", func(t *testing.T, g *followRig) {
			g.step(g.t0.Add(lease/3), event{kind: evClosed, conn: 1, err: errors.New("EOF")})
			g.elected(g.t0.Add(lease / 3))
		}},
		{"a goodbye at lease - 1ns stands down", func(t *testing.T, g *followRig) {
			g.frame(lease-time.Nanosecond, fGoodbye, nil)
			g.ended("")
		}},
		{"a goodbye at exactly the lease end stands down", func(t *testing.T, g *followRig) {
			g.frame(lease, fGoodbye, nil)
			g.ended("")
		}},
		{"an empty append ends the run", func(t *testing.T, g *followRig) {
			g.frame(time.Millisecond, fJournalAppend, nil)
			g.ended("empty journal append")
		}},
		{"an unknown frame ends the run", func(t *testing.T, g *followRig) {
			g.frame(time.Millisecond, fGrant, encodeGrant(nil, 7, nil))
			g.ended("unexpected frame")
		}},
		{"a journal sequence gap ends the run", func(t *testing.T, g *followRig) {
			// The join of worker 4 never arrived: its death cannot apply.
			g.frame(time.Millisecond, fJournalAppend, g.appendRecord(jMember, &memberRecord{Round: 7, Epoch: 3, NextID: 5, Died: []int{4}}))
			g.ended("died without joining")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newFollowRig(t)) })
	}
}

// TestCoreFollowDialFails: a standby whose dial fails — no connection, a
// reply that is not a snapshot offer, an offer that does not decode — ends
// its run with an error, never an election: it never had an image to take
// over.
func TestCoreFollowDialFails(t *testing.T) {
	for _, ev := range []event{
		{kind: evDialed, err: errors.New("connection refused")},
		{kind: evDialed, conn: 1, typ: fWelcome, body: mustGob(t, &Welcome{})},
		{kind: evDialed, conn: 1, typ: fSnapshotOffer, body: []byte{0xFF}},
	} {
		c := newCoord(CoordConfig{Streams: 4}, nil)
		c.enter = func() { c.follow("primary:1", StandbyJoin{}) }
		now := time.Unix(1000, 0)
		c.step(now, event{kind: evStart}, nil)
		effs := c.step(now, ev, nil)
		if e := only(t, effs, effDone); e.err == nil || !strings.Contains(e.err.Error(), "standby follow") || c.elected {
			t.Fatalf("dial outcome %+v: run ended with %v, elected=%v", ev, e.err, c.elected)
		}
	}
}

// TestCoordinatorCoreIsSansIO holds the protocol files to what makes the
// tests above possible: no goroutine, channel, socket, file, wall clock or
// link in core.go, failover.go or the worker's session.go — those belong to
// the shell (link.go).
func TestCoordinatorCoreIsSansIO(t *testing.T) {
	banned := regexp.MustCompile(`\bgo\s+\w|\bchan\b|\btime\.(Now|Since|Until|After|AfterFunc|NewTimer|NewTicker|Tick|Sleep)\b|\bnet\.|\bos\.|\*link\b`)
	for _, name := range []string{"core.go", "failover.go", "session.go"} {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(src), "\n") {
			if i := strings.Index(line, "//"); i >= 0 {
				line = line[:i]
			}
			if hit := banned.FindString(line); hit != "" {
				t.Errorf("%s:%d: %q in the coordinator core", name, n+1, hit)
			}
		}
	}
}

// Test-only helpers the package's tests share.

// alive reports whether the link has not died yet.
func (l *link) alive() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err == nil
}

// NewRing builds a ring over the given worker IDs.
func NewRing(workers []int) *Ring {
	r := &Ring{}
	for _, w := range workers {
		r.Add(w)
	}
	return r
}

// MarshalBlob serializes one stream blob. A fresh encoder per blob makes the
// bytes a pure function of the value, so a test can byte-compare pre- and
// post-transfer state.
func MarshalBlob(b StreamBlob) ([]byte, error) { return gobEncode(&b) }

// UnmarshalBlob parses a serialized stream blob.
func UnmarshalBlob(body []byte) (StreamBlob, error) {
	var b StreamBlob
	err := gobDecode(body, &b)
	return b, err
}
