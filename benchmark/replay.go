package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"packetgame/internal/capture"
	"packetgame/internal/codec"
	"packetgame/internal/container"
	"packetgame/internal/pipeline"
	"packetgame/internal/stream"
)

// replay-pgsp: the open-loop workload. Set-up writes a bursty capture of
// the benchmark's own fleet, loads it, serves it with capture.ServeReplay at
// speed 1 on the real clock over loopback TCP, and connects one PGSP client
// feeding the staged engine. Every round is timed from its due time — the
// replay's start plus the round's recorded offset — never from when it was
// read, so queueing behind a burst and the client's round assembly both
// count.
//
// The capture is written with capture.NewWriter/WritePacket rather than
// capture.GenerateCorpus: GenerateCorpus strips payloads, so nothing
// replayed from its output can be decoded, and every selected packet would
// fail. Writing it here also keeps the ground truth, which is what lets
// recall be defined on this workload although none travels on the wire.

// replayClock is the real clock, instrumented: capture.ServeReplay reads it
// once when a replay starts and once before each round, and sleeps on it
// until a round is due. Recording those calls gives the replay's true start
// (so due times are exact, not guessed from the connect time) and when each
// round was actually emitted (how late the generator ran).
type replayClock struct {
	mu    sync.Mutex
	calls []time.Time // calls[0] = replay start; calls[i+1] = round i emitted
}

func (c *replayClock) Now() time.Time {
	t := time.Now()
	c.mu.Lock()
	c.calls = append(c.calls, t)
	c.mu.Unlock()
	return t
}

func (c *replayClock) Sleep(d time.Duration) {
	time.Sleep(d)
	t := time.Now()
	c.mu.Lock()
	c.calls[len(c.calls)-1] = t
	c.mu.Unlock()
}

func (c *replayClock) snapshot() []time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Time(nil), c.calls...)
}

// countingConn counts the bytes the PGSP client reads off the wire.
type countingConn struct {
	net.Conn
	n atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.n.Add(int64(n))
	return n, err
}

// netSource wraps pipeline.NetSource: it stamps each round's arrival, sets
// T0 to the round's due time, and opens the timed bracket once warm-up is
// through.
type netSource struct {
	inner  *pipeline.NetSource
	rig    *replayRig
	arrive []int64
}

func (s *netSource) NextRound() ([]*codec.Packet, error) {
	return nil, errors.New("benchmark: sparse source pulled dense")
}

func (s *netSource) Truth(i int) (codec.Scene, bool) { return codec.Scene{}, false }

func (s *netSource) NextRoundSparse() (*codec.Round, error) {
	r, err := s.inner.NextRoundSparse()
	if err != nil {
		return nil, err
	}
	rr, p := s.rig, s.rig.p
	k := p.pulled
	p.pulled++
	if k >= len(p.t0) {
		return nil, fmt.Errorf("benchmark: replay delivered more than %d rounds", len(p.t0))
	}
	s.arrive[k] = p.now()
	if k == 0 {
		calls := rr.clock.snapshot()
		if len(calls) == 0 {
			return nil, errors.New("benchmark: replay clock never read")
		}
		rr.startNs = int64(calls[0].Sub(p.epoch))
	}
	p.t0[k] = rr.startNs + int64(rr.due[k])
	switch burst := rr.spec.burstRounds; {
	case k == warmRounds-1:
		// The last warm-up round: collect set-up garbage and start the
		// clock now, a frame period before the first timed round arrives.
		rr.wireAtStart = rr.conn.n.Load()
		runtime.GC()
		rr.br.start()
		close(rr.warm)
	case k >= warmRounds && (k+1)%burst == 0 && k+1 < len(rr.due):
		// One timed block per burst, cut where the engine is idle. The last
		// burst's block stays open until the engine has finished with it.
		rr.br.stop(burst, rr.packetsIn(k+1-burst, k+1))
		rr.br.start()
	}
	return r, nil
}

type replayRig struct {
	*rig
	dir     string
	due     []time.Duration // each round's recorded offset from the first
	blk     *block
	clock   *replayClock
	srv     *capture.ReplayServer
	conn    *countingConn
	client  *stream.Client
	src     *netSource
	startNs int64

	warm        chan struct{} // closed when warm-up is through
	finished    chan struct{} // closed when the engine's Run returns
	runErr      error
	loadS       float64
	capBytes    int64
	wireAtStart int64
}

// replaySchedule lays out n rounds of a bursty recorded timeline:
// burstRounds rounds at fps pacing, then an idle gap, repeated.
func replaySchedule(spec workloadSpec, n int) []time.Duration {
	step := time.Second / time.Duration(spec.fps)
	due := make([]time.Duration, n)
	for r := 1; r < n; r++ {
		due[r] = due[r-1] + step
		if r%spec.burstRounds == 0 {
			due[r] += spec.idleGap
		}
	}
	return due
}

func newReplayRig(spec workloadSpec, seed int64, traced bool, blocks, mark int) (system, error) {
	parts, err := newRigParts(spec, seed, traced, blocks, mark)
	if err != nil {
		return nil, err
	}
	rr := &replayRig{rig: parts, clock: &replayClock{}, warm: make(chan struct{}), finished: make(chan struct{})}
	rr.due = replaySchedule(spec, warmRounds+blocks*spec.blockSize)
	rr.blk = rr.gen.next(len(rr.due))

	// Write the capture inside the checkout, then load it back.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	if rr.dir, err = os.MkdirTemp(".bench_build", "replay-"); err != nil {
		return nil, err
	}
	path := filepath.Join(rr.dir, "bursty.pgc")
	if err := rr.writeCapture(path); err != nil {
		rr.close()
		return nil, fmt.Errorf("writing capture: %w", err)
	}
	if st, err := os.Stat(path); err == nil {
		rr.capBytes = st.Size()
	}
	t0 := time.Now()
	cap, err := capture.LoadFile(path)
	rr.loadS = time.Since(t0).Seconds()
	if err != nil {
		rr.close()
		return nil, err
	}
	if len(cap.Rounds) != len(rr.due) {
		rr.close()
		return nil, fmt.Errorf("capture holds %d rounds, wrote %d", len(cap.Rounds), len(rr.due))
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rr.close()
		return nil, err
	}
	rr.srv, err = capture.ServeReplay(ln, []*capture.Capture{cap}, capture.ReplayOptions{Speedup: 1, Clock: rr.clock})
	if err != nil {
		ln.Close()
		rr.close()
		return nil, err
	}
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		rr.close()
		return nil, err
	}
	rr.conn = &countingConn{Conn: c}
	if rr.client, err = stream.NewClient(rr.conn); err != nil {
		rr.close()
		return nil, err
	}
	rr.src = &netSource{inner: pipeline.NewNetSource(rr.client), rig: rr, arrive: make([]int64, len(rr.due))}
	rr.p.load(rr.blk, warmRounds)
	if rr.eng, err = pipeline.New(rr.engineConfig(rr.src)); err != nil {
		rr.close()
		return nil, err
	}
	go func() {
		_, rr.runErr = rr.eng.Run(0)
		n, burst := len(rr.due), rr.spec.burstRounds
		rr.br.stop(burst, rr.packetsIn(n-burst, n))
		close(rr.finished)
	}()
	select {
	case <-rr.warm:
	case <-rr.finished:
		err := rr.runErr
		rr.close()
		return nil, fmt.Errorf("replay ended during warm-up: %v", err)
	}
	return rr, nil
}

// packetsIn counts the packets of capture rounds [from, to).
func (rr *replayRig) packetsIn(from, to int) int64 {
	var n int64
	for k := from; k < to && k < len(rr.blk.rounds); k++ {
		n += int64(len(rr.blk.rounds[k].ids))
	}
	return n
}

func (rr *replayRig) writeCapture(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	meta := capture.SessionMeta{Label: "benchmark replay-pgsp"}
	for _, st := range rr.gen.fleet {
		ec := st.Encoder.Config()
		meta.Streams = append(meta.Streams, capture.StreamMeta{Codec: ec.Codec.String(), FPS: ec.FPS, GOPSize: ec.GOPSize})
	}
	w, err := capture.NewWriter(f, meta)
	if err != nil {
		f.Close()
		return err
	}
	for k := range rr.blk.rounds {
		for _, p := range rr.blk.rounds[k].pkts {
			if err := w.WritePacket(rr.due[k], int64(k), p); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run waits for the replay to play out; the capture fixes its length.
func (rr *replayRig) run() error {
	<-rr.finished
	if rr.runErr != nil {
		rr.p.fail(rr.runErr)
	}
	return rr.runErr
}

func (rr *replayRig) close() {
	if rr.client != nil {
		rr.client.Close() // unblocks the engine's source read
		if rr.eng != nil {
			<-rr.finished
		}
	}
	if rr.srv != nil {
		rr.srv.Close()
	}
	if rr.dir != "" {
		os.RemoveAll(rr.dir)
	}
}

func (rr *replayRig) outcome() *outcome {
	p := rr.p
	n := p.decided
	rr.p.finishBlock()
	o := &outcome{
		p: p, br: rr.br,
		digest: rr.gen.digest, markDigest: rr.gen.markDigest, genMs: rr.gen.genMsPerRound(),
		layer: map[string]reading{},
	}
	if n != len(rr.due) {
		p.fail(fmt.Errorf("replay delivered %d of %d rounds", n, len(rr.due)))
	}
	timed := int64(n - warmRounds)
	if timed < 1 {
		timed = 1
	}

	// How late did rounds reach the engine, and how far behind was it?
	var lag []float64
	backlog, j := 0, 0
	for k := warmRounds; k < n; k++ {
		lag = append(lag, msOf(rr.src.arrive[k]-p.t0[k]))
		for j < n && rr.startNs+int64(rr.due[j]) <= rr.src.arrive[k] {
			j++
		}
		if b := j - 1 - k; b > backlog {
			backlog = b
		}
	}
	o.layer["stream.ingest_lag_ms_p50"] = reading{quantile(lag, 0.50), timed}
	o.layer["stream.ingest_lag_ms_p99"] = reading{quantile(lag, 0.99), timed}
	o.layer["stream.backlog_rounds_max"] = reading{float64(backlog), timed}
	o.layer["stream.wire_bytes_per_round"] = reading{ratio(float64(rr.conn.n.Load()-rr.wireAtStart), float64(timed)), timed}
	o.layer["capture.load_s"] = reading{rr.loadS, 1}
	o.layer["capture.bytes_per_packet"] = reading{ratio(float64(rr.capBytes), float64(rr.gen.packets)), rr.gen.packets}

	// How faithfully did the generator replay the recorded timing?
	calls := rr.clock.snapshot()
	if len(calls) == len(rr.due)+1 {
		recorded := (rr.due[len(rr.due)-1] - rr.due[warmRounds]).Seconds()
		replayed := calls[len(calls)-1].Sub(calls[warmRounds+1]).Seconds()
		drift := (replayed - recorded) / recorded
		if drift < 0 {
			drift = -drift
		}
		o.layer["capture.span_err_pct"] = reading{drift * 100, timed}
		var late []float64
		for k := warmRounds; k < len(rr.due); k++ {
			late = append(late, msOf(int64(calls[k+1].Sub(calls[0])-rr.due[k])))
		}
		o.notes = append(o.notes, fmt.Sprintf("open-loop generator lateness: p50 %.3f ms, max %.3f ms over %d rounds",
			quantile(late, 0.5), quantile(late, 1), len(late)))
		// A drift under 100 ms is scheduling jitter, whatever share of a
		// short (smoke-test) span it is.
		if drift > 0.05 && drift*recorded > 0.1 {
			o.failAll = true
			o.notes = append(o.notes, fmt.Sprintf("replayed span drifted %.1f%% from the recorded span: rounds marked failed", drift*100))
		}
	} else {
		o.failAll = true
		o.notes = append(o.notes, fmt.Sprintf("replay clock saw %d rounds of %d", len(calls)-1, len(rr.due)))
	}
	if p.tr != nil {
		rr.fillTraced(o)
		ns, pkts, err := rr.shadowParse()
		if err != nil {
			o.notes = append(o.notes, "shadow PGSP parse: "+err.Error())
		}
		o.layer["stream.parse_ns_per_packet"] = reading{ratio(float64(ns), float64(pkts)), pkts}
	}
	rr.blk = nil
	o.heapMB = rr.heapLiveMB()
	return o
}

// memConn serves a byte slice as a net.Conn, for the shadow parse.
type memConn struct {
	net.Conn // nil: only Read and Close are ever called
	r        *bytes.Reader
}

func (c memConn) Read(b []byte) (int, error) { return c.r.Read(b) }
func (c memConn) Close() error               { return nil }

// shadowParse frames the first rounds of the capture exactly as the replay
// server does, in memory, and times a fresh PGSP client assembling them
// back into rounds: the stream layer's parse cost without the network wait.
func (rr *replayRig) shadowParse() (ns int64, pkts int64, err error) {
	rounds := rr.blk.rounds
	if len(rounds) > 4*warmRounds {
		rounds = rounds[:4*warmRounds]
	}
	var infos []stream.StreamInfo
	for _, st := range rr.gen.fleet {
		ec := st.Encoder.Config()
		infos = append(infos, stream.StreamInfo{Codec: ec.Codec, FPS: ec.FPS, GOPSize: ec.GOPSize})
	}
	var wire bytes.Buffer
	if err := stream.WriteHandshake(&wire, infos); err != nil {
		return 0, 0, err
	}
	var body, frame []byte
	for k := range rounds {
		for j, p := range rounds[k].pkts {
			body = container.MarshalPacket(body[:0], p)
			frame = stream.AppendFrame(frame[:0], uint64(k), uint32(rounds[k].ids[j]), body)
			wire.Write(frame)
			pkts++
		}
	}
	wire.Write(stream.AppendGoodbye(nil, uint64(len(rounds))))
	c, err := stream.NewClient(memConn{r: bytes.NewReader(wire.Bytes())})
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	for {
		if _, err := c.NextRoundSparse(); err != nil {
			if err == io.EOF {
				break
			}
			return 0, 0, err
		}
	}
	return time.Since(t0).Nanoseconds(), pkts, nil
}
