package cluster

import "time"

// Deterministic jitter for worker-side timers. Every value is a pure
// function of (worker id, salt, attempt), derived from the same splitmix64
// the placement ring uses: no time, no global RNG, so same-seed cluster
// runs schedule identically and tests can pin exact values.

// jitterFrac maps (id, salt) to a uniform fraction in [0, 1).
func jitterFrac(id int, salt uint64) float64 {
	h := splitmix64(uint64(id)*0x9E3779B97F4A7C15 ^ salt)
	return float64(h>>11) / float64(1<<53)
}

// heartbeatJitter spreads heartbeat periods ±12.5% by worker identity: a
// fleet admitted (or re-homed after a takeover) together must not beacon
// the coordinator in phase.
func heartbeatJitter(base time.Duration, id int) time.Duration {
	off := (jitterFrac(id, 0xB5EA7) - 0.5) * 0.25
	return base + time.Duration(off*float64(base))
}

// rejoinBackoff is the capped-exponential pause between re-join sweeps,
// jittered to [0.5, 1.5)× by (id, attempt): a dead coordinator orphans the
// whole fleet at once, and the standby must not be hammered in lockstep.
func rejoinBackoff(base time.Duration, id, attempt int) time.Duration {
	shift := attempt
	if shift > 5 {
		shift = 5
	}
	d := base << uint(shift)
	return d/2 + time.Duration(jitterFrac(id, 0x5EED+uint64(attempt)*0x9E3779B9)*float64(d))
}
