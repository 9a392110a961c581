package nn

// cpuHasAVX2 reports whether the CPU and the OS both support AVX2.
func cpuHasAVX2() bool

// matvecAVX2 is the lane-per-output kernel behind matvecRows; see
// kernel_amd64.s for its contract.
//
//go:noescape
func matvecAVX2(wt, b, x, y *float32, in, lanes, ystride, n int, relu bool)

// conv3AVX2 is the lane-per-output kernel behind a tap-laid-out conv (see
// tapLayout); kernel_amd64.s has its contract.
//
//go:noescape
func conv3AVX2(tab *float32, pos *int32, x, y *float32, inL, width, n int, relu bool)
