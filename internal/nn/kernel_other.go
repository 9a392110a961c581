//go:build !amd64

package nn

func cpuHasAVX2() bool { return false }

// matvecAVX2 and conv3AVX2 are never reached off amd64: Compile lays no op
// out for them.
func matvecAVX2(wt, b, x, y *float32, in, lanes, ystride, n int, relu bool) {
	panic("nn: no SIMD kernel on this architecture")
}

func conv3AVX2(tab *float32, pos *int32, x, y *float32, inL, width, n int, relu bool) {
	panic("nn: no SIMD kernel on this architecture")
}
