//go:build !amd64

package nn

func cpuHasAVX2() bool { return false }

// matvecAVX2 is never reached off amd64: Compile lays no op out for it.
func matvecAVX2(wt, b, x, y *float32, in, lanes, ystride, n int, relu bool) {
	panic("nn: no SIMD kernel on this architecture")
}
