package stream

import (
	"fmt"
	"io"
	"net"
	"time"

	"packetgame/internal/codec"
)

// ResilientConfig parameterizes the self-healing PGSP client.
type ResilientConfig struct {
	// Addr is the PGSP server address.
	Addr string
	// MaxAttempts bounds the dials per outage (default 8). Exhausting them
	// surfaces the last dial error to the caller.
	MaxAttempts int
	// BaseBackoff is the delay before the second dial of an outage; it
	// doubles per attempt (default 50ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff (default 2s).
	MaxBackoff time.Duration
	// Seed drives the deterministic backoff jitter (±25%), decorrelating
	// reconnect storms across clients without nondeterministic sleeps.
	Seed int64
	// WrapConn, when non-nil, wraps every dialed connection — the fault
	// injection hook.
	WrapConn func(net.Conn) net.Conn
}

func (c ResilientConfig) withDefaults() ResilientConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	return c
}

// Resilient is a PGSP client that survives connection outages: an io.EOF
// without the server's goodbye marker (reset, mid-frame cut) or a framing
// error triggers an automatic reconnect with jittered exponential backoff.
// Reconnection resyncs at a round boundary — the partial round in flight
// when the connection died is discarded, and consumption resumes with the
// first complete round of the new session. Only a goodbye-terminated
// session ends the stream with io.EOF.
//
// The server builds a fresh camera fleet per connection, so a reconnected
// session restarts its round numbering; its consumers (the pipeline engine)
// never observe round indices, only round boundaries.
type Resilient struct {
	cfg ResilientConfig
	cur *Client

	streams    int
	outages    uint64
	reconnects int64
	crcDropped int64

	// backoff is the starting delay of the NEXT outage's dial loop. It
	// escalates across sessions that die before delivering a single round
	// (a flapping server must not be re-dialed at base rate forever) and
	// resets to BaseBackoff only once a session proves healthy by
	// delivering a round.
	backoff   time.Duration
	gotRound  bool
	needDelay bool

	dense []*codec.Packet // NextRound's dense view
}

// NewResilient connects to the server (with the same retry policy used for
// reconnects) and performs the handshake.
func NewResilient(cfg ResilientConfig) (*Resilient, error) {
	r := &Resilient{cfg: cfg.withDefaults()}
	r.backoff = r.cfg.BaseBackoff
	if err := r.connect(); err != nil {
		return nil, err
	}
	return r, nil
}

// Streams returns the per-stream metadata from the current session's
// handshake.
func (r *Resilient) Streams() []StreamInfo {
	if r.cur == nil {
		return nil
	}
	return r.cur.Streams()
}

// Reconnects returns the number of successful reconnections after outages.
func (r *Resilient) Reconnects() int64 { return r.reconnects }

// CorruptDropped returns the CRC-dropped frame count across all sessions.
func (r *Resilient) CorruptDropped() int64 {
	n := r.crcDropped
	if r.cur != nil {
		n += r.cur.CorruptDropped()
	}
	return n
}

// Close closes the current connection.
func (r *Resilient) Close() error {
	if r.cur == nil {
		return nil
	}
	err := r.cur.Close()
	r.cur = nil
	return err
}

// NextRoundSparse yields the next complete round, transparently
// reconnecting across outages; the round is valid until the next call. It
// returns io.EOF only after a clean goodbye-terminated session, or a non-nil
// error once an outage exhausts MaxAttempts dials.
func (r *Resilient) NextRoundSparse() (*codec.Round, error) {
	for {
		if r.cur == nil {
			if err := r.connect(); err != nil {
				return nil, err
			}
		}
		rnd, err := r.cur.NextRoundSparse()
		if err == nil {
			if !r.gotRound {
				// The session is healthy: the next outage is a new incident
				// and starts its backoff from the base delay again.
				r.gotRound = true
				r.backoff = r.cfg.BaseBackoff
			}
			return rnd, nil
		}
		if err == io.EOF && r.cur.SawGoodbye() {
			r.retire()
			return nil, io.EOF
		}
		// Outage: reset, mid-frame cut, or framing desync. Drop the session
		// and heal. A session that died without delivering a single round
		// is a flap, not a fresh incident: the next dial must wait out the
		// (escalating) backoff even if TCP connects instantly.
		if !r.gotRound {
			r.needDelay = true
		}
		r.retire()
		r.outages++
	}
}

// NextRound is the dense view of NextRoundSparse, valid until the next call.
func (r *Resilient) NextRound() ([]*codec.Packet, error) {
	rnd, err := r.NextRoundSparse()
	if err != nil {
		return nil, err
	}
	return denseView(&r.dense, rnd), nil
}

// retire folds the dead session's counters and discards it.
func (r *Resilient) retire() {
	if r.cur == nil {
		return
	}
	r.crcDropped += r.cur.CorruptDropped()
	r.cur.Close()
	r.cur = nil
}

// connect dials with jittered exponential backoff until a session
// handshakes or MaxAttempts is exhausted. The starting delay is r.backoff —
// base after a healthy session, carried forward (inflated) while
// consecutive sessions die without a round — and the escalated value is
// persisted so a flapping server keeps being dialed ever more slowly.
func (r *Resilient) connect() error {
	backoff := r.backoff
	var lastErr error
	for attempt := 0; attempt < r.cfg.MaxAttempts; attempt++ {
		if attempt > 0 || r.needDelay {
			time.Sleep(r.jittered(backoff, attempt))
			backoff *= 2
			if backoff > r.cfg.MaxBackoff {
				backoff = r.cfg.MaxBackoff
			}
		}
		conn, err := net.Dial("tcp", r.cfg.Addr)
		if err != nil {
			lastErr = err
			continue
		}
		if r.cfg.WrapConn != nil {
			conn = r.cfg.WrapConn(conn)
		}
		c, err := NewClient(conn)
		if err != nil {
			lastErr = err
			continue
		}
		if r.streams != 0 && len(c.Streams()) != r.streams {
			c.Close()
			return fmt.Errorf("stream: reconnected session advertises %d streams, previous had %d", len(c.Streams()), r.streams)
		}
		r.streams = len(c.Streams())
		if r.outages > 0 {
			r.reconnects++
		}
		r.cur = c
		// A handshake alone is not health: keep the escalated delay until
		// the session delivers a round.
		r.gotRound = false
		r.needDelay = false
		r.backoff = backoff
		return nil
	}
	return fmt.Errorf("stream: connect to %s failed after %d attempts: %w", r.cfg.Addr, r.cfg.MaxAttempts, lastErr)
}

// jittered perturbs a backoff by ±25%, deterministically from (Seed, outage,
// attempt) so runs at equal seeds sleep identically.
func (r *Resilient) jittered(d time.Duration, attempt int) time.Duration {
	x := uint64(r.cfg.Seed)*0x9E3779B97F4A7C15 ^ r.outages*0xBF58476D1CE4E5B9 ^ uint64(attempt)*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	frac := float64(x>>11) / float64(1<<53) // [0,1)
	return d + time.Duration((frac-0.5)*0.5*float64(d))
}
