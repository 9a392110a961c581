//go:build !race

package core

import (
	"runtime"
	"testing"
)

// TestGateBytesPerStream is the per-stream memory gate: a temporal-only gate
// with breakers armed — the overload ladder's first rung, orphan mode, every
// cluster worker — must hold at most 260 live bytes per configured stream at
// m = 50,000. It allocates only the per-stream state its configuration reads
// (no feature store without a predictor, flat trackers). The race detector
// changes allocation, hence the build tag.
func TestGateBytesPerStream(t *testing.T) {
	const m, ceiling = 50000, 260
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	g, err := NewGate(Config{Streams: m, Budget: 600, UseTemporal: true, Breaker: &BreakerConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	after := live()
	runtime.KeepAlive(g)
	perStream := float64(int64(after)-int64(before)) / m
	t.Logf("temporal-only gate with breakers: %.1f B per configured stream (m=%d)", perStream, m)
	if perStream > ceiling {
		t.Fatalf("temporal-only gate holds %.1f B per configured stream, ceiling %d", perStream, ceiling)
	}
}
