package cluster

import (
	"bytes"
	"cmp"
	"fmt"
	"os"
	"slices"

	"packetgame/internal/container"
	"packetgame/internal/overload"
)

// The coordinator journal makes the cluster's control-plane state durable:
// a snapshot record followed by an append-only stream of round, membership,
// and reconcile records, each an internal/container CRC record. The same
// byte stream serves two consumers — a file on disk (crash recovery) and
// live standbys following over PGCP v3 fJournalAppend frames (election) — so
// both replay through one replica state machine and provably converge to the
// same image.
//
// Compaction keeps the log bounded: once CompactEvery records accumulate
// past the last snapshot the file is rewritten as magic+snapshot via
// tmp-file+rename, so a crash mid-compaction leaves either the old or the
// new journal intact, never a half-written one.

// Journal record kinds. The zero value is reserved so a zero-filled torn
// tail never parses as a valid record kind.
const (
	jSnapshot  uint8 = 1 + iota // full replicaState image (gob)
	jRound                      // one planned round: selections, deltas, governor state
	jMember                     // membership change: joins and deaths at a round boundary
	jReconcile                  // out-of-round accuracy deltas (re-home / orphan reconcile)
)

// journalMagic opens every journal file: format tag plus version byte.
var journalMagic = []byte{'P', 'G', 'J', '1', 1}

// maxJournalBody bounds a single journal record. Control-plane records are
// small (no packet payloads); anything bigger is corruption.
const maxJournalBody = 16 << 20

// memberInfo is one ring member as journaled.
type memberInfo struct {
	ID   int
	Name string
}

// workerCtl is the per-worker control state the reconciler holds: the
// demand EWMA and, under a latency SLO, the AIMD governor state. HasDemand
// distinguishes "no sample yet" (first observation seeds the EWMA) from a
// genuine zero.
type workerCtl struct {
	ID        int
	Demand    float64
	HasDemand bool
	Gov       *overload.GovernorState
}

// roundRecord journals one completed round: everything a replica needs to
// extend the decision hash, accuracy counters, and per-worker governor
// state without re-running the solve. It stores plan *outputs* (post-
// observe state), so applying it is self-contained.
type roundRecord struct {
	Round   int64
	BEff    float64
	Mode    uint8
	LatNs   int64
	SLOMiss bool
	Sel     []int
	Deltas  AccDeltas
	Ctl     []workerCtl
}

// memberRecord journals a membership change at round boundary Round and what
// its state migration did. (The three counts postdate PGJ1 v1: gob reads a
// record without them as zeros and an older reader skips them.)
type memberRecord struct {
	Round  int64
	Epoch  uint64
	NextID int
	Joined []memberInfo
	Died   []int

	Transfers      int64
	TransfersLost  int64
	FreshAdoptions int64
}

// replicaState is the durable image of the coordinator's control plane. It
// is simultaneously the snapshot record body (gob) and the runtime state a
// standby maintains while following the journal: apply() folds each record
// into it deterministically, so file replay and frame-following reach
// bit-identical images.
type replicaState struct {
	// Config digest: a standby taking over with a mismatched topology
	// would silently diverge from the oracle, so these are checked.
	Streams int
	Budget  float64
	Window  int
	Task    string
	SLONs   int64

	Round   int64 // next round to plan
	Epoch   uint64
	NextID  int
	Members []memberInfo // live ring members, ascending by ID
	Ctl     []workerCtl  // per-member control state, ascending by ID

	Hash       uint64 // running DecisionHash over all journaled rounds
	Rounds     int64
	Decoded    int64
	Acc        AccDeltas
	SLOMisses  int64
	ModeRounds [overload.NumModes]int64

	Workers        int
	Joins          int
	Deaths         int
	Transfers      int64
	TransfersLost  int64
	FreshAdoptions int64
}

func newReplicaState() *replicaState {
	return &replicaState{Hash: fnvOffset}
}

// member finds id in Members (kept ascending): its index, or where it goes.
func (rs *replicaState) member(id int) (int, bool) {
	return slices.BinarySearchFunc(rs.Members, id, func(m memberInfo, id int) int { return cmp.Compare(m.ID, id) })
}

// ctl finds worker id's control state in Ctl (kept ascending by ID).
func (rs *replicaState) ctl(id int) (int, bool) {
	return slices.BinarySearchFunc(rs.Ctl, id, func(c workerCtl, id int) int { return cmp.Compare(c.ID, id) })
}

// apply folds one journal record into the replica. Errors mean the record
// stream is inconsistent (not merely truncated) — a follower must stop.
func (rs *replicaState) apply(kind uint8, body []byte) error {
	switch kind {
	case jSnapshot:
		var snap replicaState
		if err := gobDecode(body, &snap); err != nil {
			return fmt.Errorf("cluster: journal snapshot: %w", err)
		}
		*rs = snap
	case jRound:
		var rec roundRecord
		if err := gobDecode(body, &rec); err != nil {
			return fmt.Errorf("cluster: journal round record: %w", err)
		}
		if int(rec.Mode) >= overload.NumModes {
			return fmt.Errorf("cluster: journal round %d: mode %d out of range", rec.Round, rec.Mode)
		}
		rs.applyRound(&rec)
	case jMember:
		var rec memberRecord
		if err := gobDecode(body, &rec); err != nil {
			return fmt.Errorf("cluster: journal member record: %w", err)
		}
		if err := rs.applyMember(&rec); err != nil {
			return err
		}
	case jReconcile:
		var d AccDeltas
		if err := gobDecode(body, &d); err != nil {
			return fmt.Errorf("cluster: journal reconcile record: %w", err)
		}
		rs.Acc.add(d)
	default:
		return fmt.Errorf("cluster: unknown journal record kind %d", kind)
	}
	return nil
}

func (rs *replicaState) applyRound(rec *roundRecord) {
	if rec.Round+1 > rs.Round {
		rs.Round = rec.Round + 1
	}
	rs.Hash = foldRoundHash(rs.Hash, rec.Round, rec.Sel)
	rs.Rounds++
	rs.Decoded += int64(len(rec.Sel))
	rs.Acc.add(rec.Deltas)
	if rec.SLOMiss {
		rs.SLOMisses++
	}
	rs.ModeRounds[rec.Mode]++
	for _, ctl := range rec.Ctl {
		if i, ok := rs.ctl(ctl.ID); ok {
			rs.Ctl[i] = ctl
		} else {
			rs.Ctl = slices.Insert(rs.Ctl, i, ctl)
		}
	}
}

func (rs *replicaState) applyMember(rec *memberRecord) error {
	rs.Epoch = rec.Epoch
	if rec.NextID > rs.NextID {
		rs.NextID = rec.NextID
	}
	for _, m := range rec.Joined {
		i, ok := rs.member(m.ID)
		if ok {
			return fmt.Errorf("cluster: journal member %d joined twice", m.ID)
		}
		rs.Members = slices.Insert(rs.Members, i, m)
		rs.Workers++
		if rec.Round > 0 {
			rs.Joins++
		}
	}
	for _, id := range rec.Died {
		i, ok := rs.member(id)
		if !ok {
			return fmt.Errorf("cluster: journal member %d died without joining", id)
		}
		rs.Members = slices.Delete(rs.Members, i, i+1)
		if i, ok := rs.ctl(id); ok {
			rs.Ctl = slices.Delete(rs.Ctl, i, i+1)
		}
		rs.Deaths++
	}
	rs.Transfers += rec.Transfers
	rs.TransfersLost += rec.TransfersLost
	rs.FreshAdoptions += rec.FreshAdoptions
	return nil
}

// foldRoundHash extends the running FNV-1a decision hash with one round's
// selections. The coordinator's live hash and journal replay share this
// exact fold, which is what makes post-takeover DecisionHash comparison
// against the single-gate oracle meaningful.
func foldRoundHash(h uint64, round int64, sel []int) uint64 {
	for s := uint(0); s < 64; s += 8 {
		h = (h ^ (uint64(round) >> s & 0xFF)) * fnvPrime
	}
	for _, i := range sel {
		v := uint64(uint32(i))
		for s := uint(0); s < 32; s += 8 {
			h = (h ^ (v >> s & 0xFF)) * fnvPrime
		}
	}
	return h
}

// OracleHash folds a complete selection transcript (round 0 onward) the
// way a live run folds its per-round decisions: the DecisionHash a cluster
// making exactly these decisions would report. Benchmarks use it to compare
// a fail-over run against the single-gate oracle without exporting the fold.
func OracleHash(sels [][]int) uint64 {
	h := uint64(fnvOffset)
	for r, sel := range sels {
		h = foldRoundHash(h, int64(r), sel)
	}
	return h
}

// journal is the on-disk append log. Records are written unbuffered — one
// write() per record — so a coordinator crash loses nothing that append()
// returned success for (modulo the OS page cache; fsync happens at
// snapshot points and on Close, bounding the exposure window to well under
// the one-round loss budget).
type journal struct {
	path string
	f    *os.File
	buf  []byte
}

// openJournal creates (truncating) a journal at path seeded with an
// initial snapshot record.
func openJournal(path string, snap []byte) (*journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: journal: %w", err)
	}
	j := &journal{path: path, f: f}
	j.buf = container.AppendRecord(append(j.buf, journalMagic...), jSnapshot, snap)
	if _, err = f.Write(j.buf); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("cluster: journal write: %w", err)
	}
	return j, nil
}

// append writes one record. The caller decides when to compact, so
// snapshots land only at consistent points.
func (j *journal) append(kind uint8, body []byte) error {
	j.buf = container.AppendRecord(j.buf[:0], kind, body)
	if _, err := j.f.Write(j.buf); err != nil {
		return fmt.Errorf("cluster: journal write: %w", err)
	}
	return nil
}

// compact rewrites the journal as magic+snapshot. Written to a tmp file
// and renamed over the original so a crash mid-compaction leaves a valid
// journal either way.
func (j *journal) compact(snap []byte) error {
	tmp := j.path + ".tmp"
	nj, err := openJournal(tmp, snap) // written and fsynced
	if err == nil {
		if err = os.Rename(tmp, j.path); err != nil {
			nj.f.Close()
		}
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cluster: journal compact: %w", err)
	}
	// The new file's descriptor followed it through the rename; appends
	// continue at its end.
	j.f.Close()
	nj.path = j.path
	*j = *nj
	return nil
}

// Close fsyncs and closes the journal. The coordinator calls this before
// releasing its listener so a standby that wins the subsequent election
// never races a half-flushed log.
func (j *journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	if err != nil {
		return fmt.Errorf("cluster: journal close: %w", err)
	}
	return nil
}

// replayJournal reads a journal file into a replica image. A torn tail —
// the coordinator died mid-write — truncates cleanly: every record up to
// the last intact one is applied, mirroring capture's recovery model. A
// file whose very first record is unreadable is an error, as is any
// semantically inconsistent record before the tail.
func replayJournal(path string) (*replicaState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: journal: %w", err)
	}
	if len(data) < len(journalMagic) || !bytes.Equal(data[:len(journalMagic)], journalMagic) {
		return nil, fmt.Errorf("cluster: %s is not a PGJ1 v1 journal", path)
	}
	rs := newReplicaState()
	buf := data[len(journalMagic):]
	applied := 0
	for len(buf) > 0 {
		kind, body, rest, err := container.NextRecord(buf, maxJournalBody)
		if err != nil {
			if applied == 0 {
				return nil, fmt.Errorf("cluster: journal %s: %w", path, err)
			}
			break // torn tail: recovered through the last intact record
		}
		if err := rs.apply(kind, body); err != nil {
			return nil, err
		}
		buf = rest
		applied++
	}
	if applied == 0 {
		return nil, fmt.Errorf("cluster: journal %s holds no records", path)
	}
	return rs, nil
}
