package cluster

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"packetgame/internal/knapsack"
	"packetgame/internal/overload"
)

// takeoverAfterJoin is a boundary fail-over with history to lose: two
// workers, a third joining at round 21 (state migrates to it), the primary
// killed at round 30, a warm standby finishing the run. Both coordinators
// journal. It returns the killed primary's report, the standby's final one,
// and the standby's journal path.
func takeoverAfterJoin(t *testing.T) (killed, final Report, standbyJournal string) {
	t.Helper()
	p := clusterParams{m: 128, workers: 2, rounds: 60, window: 4, seed: 13}
	p.budget = 4 + float64(p.m)/8
	dir := t.TempDir()

	cfg := coordConfig(p)
	cfg.CrashAtRound = 30
	cfg.JournalPath = filepath.Join(dir, "primary.pgj")
	var c *Coordinator
	late := make(chan *Worker, 1)
	cfg.OnRoundEnd = func(round int64) {
		if round != 20 {
			return
		}
		go func() {
			if w, err := Dial(c.Addr(), WorkerOptions{Name: "late"}); err == nil {
				late <- w
			}
		}()
		for c.PendingJoins() == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	scfg := coordConfig(p)
	scfg.JournalPath = filepath.Join(dir, "standby.pgj")

	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("primary: %v", err)
	}
	primary := startRun(c)
	sb, err := NewStandby(c.Addr(), "sb0", scfg)
	if err != nil {
		t.Fatalf("standby: %v", err)
	}
	standby := startStandby(sb)
	ws := startWorkers(t, c.Addr(), p.workers, nil)

	select {
	case res := <-primary:
		if res.err != ErrCoordinatorKilled {
			t.Fatalf("primary ended with %v, want injected kill", res.err)
		}
		killed = res.rep
	case <-time.After(2 * time.Minute):
		t.Fatal("primary never reached its crash point")
	}
	final = awaitRun(t, standby)
	for i, w := range append(ws, <-late) {
		if err := w.Wait(); err != nil {
			t.Fatalf("worker %d after takeover: %v", i, err)
		}
	}
	return killed, final, scfg.JournalPath
}

// TestTakeoverKeepsTransferAccounting: the state transfers a primary made
// are part of the replica image, so the report of the standby that finishes
// the run still counts them. (They used to live only in the primary's own
// report: declared in the replica, restored from it on takeover, written by
// no record — a takeover silently zeroed them.)
func TestTakeoverKeepsTransferAccounting(t *testing.T) {
	killed, final, _ := takeoverAfterJoin(t)
	if killed.Transfers == 0 || killed.Joins != 1 {
		t.Fatalf("the join before the kill moved no state: %+v", killed)
	}
	if killed.Rounds != 30 || killed.Workers != 3 {
		t.Fatalf("killed primary's report is not the replica image at the kill: %+v", killed)
	}
	if final.Transfers < killed.Transfers || final.TransfersLost < killed.TransfersLost ||
		final.FreshAdoptions < killed.FreshAdoptions {
		t.Fatalf("takeover lost transfer accounting: primary had %d/%d/%d, final report %d/%d/%d",
			killed.Transfers, killed.TransfersLost, killed.FreshAdoptions,
			final.Transfers, final.TransfersLost, final.FreshAdoptions)
	}
	if final.Joins != 1 || final.Workers != 3 || final.Rounds != 60 {
		t.Fatalf("merged report does not span both reigns: %+v", final)
	}
}

// assertReportMatchesReplay: replaying the journal reproduces every counter
// the report carries. Accuracy is the replica's per-round deltas plus the
// finals' residuals, which reach the coordinator after the last record.
func assertReportMatchesReplay(t *testing.T, what string, rep Report, path string) {
	t.Helper()
	rs, err := replayJournal(path)
	if err != nil {
		t.Fatalf("%s: replay: %v", what, err)
	}
	acc := rs.Acc
	for _, fin := range rep.Finals {
		acc.add(AccDeltas{NegRounds: fin.NegRounds, NegCorrect: fin.NegCorrect,
			PosRounds: fin.PosRounds, PosCorrect: fin.PosCorrect, DecodeFailed: fin.DecodeFailed})
	}
	got := []any{rep.Rounds, rep.Decoded, rep.DecisionHash, rep.Workers, rep.Joins, rep.Deaths,
		rep.Transfers, rep.TransfersLost, rep.FreshAdoptions, rep.SLOMisses, rep.ModeRounds,
		rep.NegRounds, rep.NegCorrect, rep.PosRounds, rep.PosCorrect, rep.DecodeFailed}
	want := []any{rs.Rounds, rs.Decoded, rs.Hash, rs.Workers, rs.Joins, rs.Deaths,
		rs.Transfers, rs.TransfersLost, rs.FreshAdoptions, rs.SLOMisses, rs.ModeRounds,
		acc.NegRounds, acc.NegCorrect, acc.PosRounds, acc.PosCorrect, acc.DecodeFailed}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: report and journal replay disagree\nreport %v\nreplay %v", what, got, want)
	}
	if rep.Rounds == 0 || rep.PosRounds == 0 {
		t.Fatalf("%s: empty run proves nothing: %+v", what, rep)
	}
}

// TestReportMatchesJournalReplay is "journal replay ≡ live state" over the
// whole report, not only the fields a test scripted: after a stable run, a
// governed chaos run (two kills, one join with migration, fresh adoptions)
// and a boundary takeover (the standby's journal, which starts from the
// image it inherited).
func TestReportMatchesJournalReplay(t *testing.T) {
	p := clusterParams{m: 96, workers: 4, rounds: 60, window: 4, seed: 31}
	p.budget = 4 + float64(p.m)/8

	stable := filepath.Join(t.TempDir(), "stable.pgj")
	assertReportMatchesReplay(t, "stable", chaosRunWith(t, p, false, stable), stable)

	chaos := filepath.Join(t.TempDir(), "chaos.pgj")
	rep := chaosRunWith(t, p, true, chaos)
	if rep.Deaths != 2 || rep.Joins != 1 || rep.FreshAdoptions == 0 || rep.Transfers == 0 {
		t.Fatalf("chaos run did not exercise the ledger: %+v", rep)
	}
	assertReportMatchesReplay(t, "chaos", rep, chaos)

	_, final, journal := takeoverAfterJoin(t)
	assertReportMatchesReplay(t, "takeover", final, journal)
}

// TestWireGoldenFrames re-encodes one frame of every hot type from fixed
// inputs and compares it, header and CRC included, with the bytes the parent
// of the connection-shell refactor wrote (testdata/pgcp_v3_frames.hex):
// PGCP is still version 3, byte for byte.
func TestWireGoldenFrames(t *testing.T) {
	golden, err := os.ReadFile("testdata/pgcp_v3_frames.hex")
	if err != nil {
		t.Fatal(err)
	}
	frames := []struct {
		name string
		typ  uint8
		body []byte
	}{
		{"round", fRound, encodeRoundDelta(nil, 7, 12.5, overload.Mode(1), fuzzRoundPkts(3, 7, 12, 63), []int32{0, 3, 7, 63})},
		{"candidates", fCandidates, encodeCandidates(nil, 7, 4.75, []knapsack.Candidate{
			{Stream: 3, Value: 0.5, Cost: 1.25}, {Stream: 7, Value: 0.125, Cost: 2}, {Stream: 63, Value: 0.875, Cost: 1.5}})},
		{"grant", fGrant, encodeGrant(nil, 7, []int{63, 3})},
		{"report", fReport, encodeReport(7, 1234567, AccDeltas{NegRounds: 30, NegCorrect: 29, PosRounds: 4, PosCorrect: 3, DecodeFailed: 1, Shed: 200, Deferred: 2})},
	}
	var out strings.Builder
	for _, f := range frames {
		var buf bytes.Buffer
		if err := writeFrame(bufio.NewWriter(&buf), f.typ, f.body); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s %s\n", f.name, hex.EncodeToString(buf.Bytes()))
		typ, body, err := (&link{br: bufio.NewReader(&buf)}).recv(0, nil)
		if err != nil || typ != f.typ || !bytes.Equal(body, f.body) {
			t.Fatalf("%s frame does not read back: type %d, %v", f.name, typ, err)
		}
	}
	if out.String() != string(golden) {
		t.Fatalf("hot frames moved on the wire\n got:\n%s\nwant:\n%s", out.String(), golden)
	}
	if protoVersion != 3 || !bytes.Equal(preamble, []byte("PGCP\x00\x03")) || !bytes.Equal(journalMagic, []byte("PGJ1\x01")) {
		t.Fatal("protocol or journal version moved")
	}
}

// TestParentJournalReplays: a journal written before membership records
// carried transfer counts (testdata/pgj1_parent.pgj, journalFixture(seed 99,
// 40 records) at the parent commit) replays to the very image today's code
// reaches from the same record sequence. PGJ1 is still version 1.
func TestParentJournalReplays(t *testing.T) {
	got, err := replayJournal("testdata/pgj1_parent.pgj")
	if err != nil {
		t.Fatalf("parent journal: %v", err)
	}
	want := journalFixture(t, filepath.Join(t.TempDir(), "j.pgj"), 99, 40, 1<<20)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("parent journal replays to a different image\nwant %+v\ngot  %+v", want, got)
	}
	if got.Rounds != 32 || got.Hash != 4355488631405591682 || got.Workers != 5 || got.Deaths != 2 {
		t.Fatalf("parent journal's image moved: %+v", got)
	}
}
