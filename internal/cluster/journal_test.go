package cluster

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"packetgame/internal/container"
	"packetgame/internal/overload"
)

// journalFixture drives a replica through a seeded random record sequence,
// mirroring every record into a journal file, and returns both.
func journalFixture(t *testing.T, path string, seed int64, records int, compactEvery int) *replicaState {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rs := newReplicaState()
	rs.Streams, rs.Window, rs.Task, rs.Budget, rs.SLONs = 64, 4, "pc", 12.5, 0

	snap, err := gobEncode(rs)
	if err != nil {
		t.Fatal(err)
	}
	jr, err := openJournal(path, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()

	since := 0 // records past the last snapshot, as the coordinator counts them
	mirror := func(kind uint8, rec any) {
		body, err := gobEncode(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.apply(kind, body); err != nil {
			t.Fatalf("apply kind %d: %v", kind, err)
		}
		if err := jr.append(kind, body); err != nil {
			t.Fatal(err)
		}
		if since++; since >= compactEvery {
			since = 0
			snap, err := gobEncode(rs)
			if err != nil {
				t.Fatal(err)
			}
			if err := jr.compact(snap); err != nil {
				t.Fatal(err)
			}
		}
	}

	var members []int
	join := func() {
		id := rs.NextID
		rs2 := memberRecord{Round: rs.Round, Epoch: rs.Epoch + 1, NextID: id + 1,
			Joined: []memberInfo{{ID: id, Name: "w"}}}
		mirror(jMember, &rs2)
		members = append(members, id)
	}
	join()
	join()

	for i := 0; i < records; i++ {
		switch k := rng.Intn(10); {
		case k == 0 && len(members) > 1:
			// Death of the oldest member.
			dead := members[0]
			members = members[1:]
			rec := memberRecord{Round: rs.Round, Epoch: rs.Epoch + 1, NextID: rs.NextID, Died: []int{dead}}
			mirror(jMember, &rec)
		case k == 1:
			join()
		case k == 2:
			mirror(jReconcile, &AccDeltas{PosRounds: int64(rng.Intn(9)), PosCorrect: int64(rng.Intn(5))})
		default:
			rec := roundRecord{
				Round: rs.Round, BEff: float64(rng.Intn(16)) + 0.5,
				Mode:  uint8(rng.Intn(int(overload.NumModes))),
				LatNs: int64(rng.Intn(1e6)), SLOMiss: rng.Intn(4) == 0,
				Sel: []int{rng.Intn(64), rng.Intn(64)},
				Deltas: AccDeltas{NegRounds: int64(rng.Intn(50)), NegCorrect: int64(rng.Intn(40)),
					PosRounds: int64(rng.Intn(20)), PosCorrect: int64(rng.Intn(18))},
			}
			for _, id := range members {
				gov := overload.GovernorState{BEff: rec.BEff, Mode: overload.Mode(rec.Mode),
					EWMANanos: float64(rng.Intn(1e6))}
				rec.Ctl = append(rec.Ctl, workerCtl{ID: id, Demand: rng.Float64() * 8, HasDemand: true, Gov: &gov})
			}
			mirror(jRound, &rec)
		}
	}
	return rs
}

// TestJournalRoundTrip is the snapshot+journal property test: replaying the
// file must land bit-for-bit on the live replica, for any seeded record
// sequence and at several compaction cadences (including mid-sequence
// compactions, which collapse the log into a snapshot).
func TestJournalRoundTrip(t *testing.T) {
	for _, compactEvery := range []int{1 << 20, 16, 3} {
		for seed := int64(1); seed <= 5; seed++ {
			path := filepath.Join(t.TempDir(), "j.pgj")
			want := journalFixture(t, path, seed, 200, compactEvery)
			got, err := replayJournal(path)
			if err != nil {
				t.Fatalf("seed %d compact %d: replay: %v", seed, compactEvery, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d compact %d: replayed replica diverges\nwant %+v\ngot  %+v",
					seed, compactEvery, want, got)
			}
		}
	}
}

// TestJournalTornTail cuts the journal mid-record — the shape a coordinator
// crash leaves behind — at every possible byte length, and requires replay
// to recover a prefix of the record stream: never a panic, never an error
// once at least the snapshot survives whole.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.pgj")
	journalFixture(t, path, 99, 40, 1<<20)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}

	// Find where the snapshot record ends: magic + first record.
	_, _, rest, err := container.NextRecord(whole[len(journalMagic):], maxJournalBody)
	if err != nil {
		t.Fatal(err)
	}
	snapEnd := len(whole) - len(rest)

	// Every cut position in the final records, a coarse stride elsewhere:
	// exhaustive where crashes actually land without minutes of replays.
	var cuts []int
	for cut := len(whole) - 1; cut >= 0; {
		cuts = append(cuts, cut)
		if len(whole)-cut < 600 {
			cut--
		} else {
			cut -= 97
		}
	}
	torn := filepath.Join(t.TempDir(), "torn.pgj")
	for _, cut := range cuts {
		if err := os.WriteFile(torn, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rs, err := replayJournal(torn)
		if cut < snapEnd {
			// The snapshot itself is damaged: nothing to recover from.
			if err == nil {
				t.Fatalf("cut %d (inside snapshot): replay accepted a torn snapshot", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: torn tail must truncate, not fail: %v", cut, err)
		}
		if rs.Rounds > full.Rounds || rs.Round > full.Round {
			t.Fatalf("cut %d: recovered MORE than the full journal holds", cut)
		}
	}
}

// TestJournalTailCorruption flips bytes in the final record: the CRC must
// reject it and replay must fall back to the last good prefix.
func TestJournalTailCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.pgj")
	journalFixture(t, path, 7, 30, 1<<20)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, flip := range []int{1, 3, 8} {
		mut := append([]byte(nil), whole...)
		mut[len(mut)-flip] ^= 0x5A
		bad := filepath.Join(t.TempDir(), "bad.pgj")
		if err := os.WriteFile(bad, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		rs, err := replayJournal(bad)
		if err != nil {
			t.Fatalf("flip at -%d: corrupted tail must truncate, not fail: %v", flip, err)
		}
		if rs.Rounds >= full.Rounds && rs.Round >= full.Round && reflect.DeepEqual(rs, full) {
			t.Fatalf("flip at -%d: corruption went unnoticed", flip)
		}
	}
}

// TestJournalRejectsForeignFile pins the header check.
func TestJournalRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-journal")
	if err := os.WriteFile(path, []byte("PGC1 something else entirely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := replayJournal(path); err == nil {
		t.Fatal("foreign file accepted as a journal")
	}
	if _, err := replayJournal(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted as a journal")
	}
}

// TestJournalCompactionBoundsFile pins the compaction contract: with a small
// CompactEvery the file must stay a snapshot plus a bounded record suffix
// rather than growing with run length.
func TestJournalCompactionBoundsFile(t *testing.T) {
	small := filepath.Join(t.TempDir(), "small.pgj")
	big := filepath.Join(t.TempDir(), "big.pgj")
	journalFixture(t, small, 3, 400, 8)
	journalFixture(t, big, 3, 400, 1<<20)
	si, err := os.Stat(small)
	if err != nil {
		t.Fatal(err)
	}
	bi, err := os.Stat(big)
	if err != nil {
		t.Fatal(err)
	}
	if si.Size()*4 > bi.Size() {
		t.Fatalf("compaction not bounding the log: compacted=%dB unbounded=%dB", si.Size(), bi.Size())
	}
}
