// Package accel models inference acceleration (TensorRT in the paper):
// a throughput multiplier on the inference model, obtained by quantization,
// layer fusion, and parallel execution. It is orthogonal to packet gating;
// the paper combines the two in Table 5.
package accel

import "fmt"

// Accelerator scales an inference model's throughput.
type Accelerator struct {
	// Name identifies the technique in reports.
	Name string
	// Speedup multiplies the base throughput. The paper's YOLOX numbers,
	// 27.7 → 753.9 FPS, give 27.2×.
	Speedup float64
}

// TensorRT returns the paper-calibrated accelerator (Fig 2a).
func TensorRT() Accelerator {
	return Accelerator{Name: "TRT", Speedup: 753.9 / 27.7}
}

// None is the identity accelerator.
func None() Accelerator { return Accelerator{Name: "none", Speedup: 1} }

// Apply returns the accelerated throughput for a base FPS.
func (a Accelerator) Apply(baseFPS float64) (float64, error) {
	if baseFPS <= 0 {
		return 0, fmt.Errorf("accel: base FPS must be positive, got %v", baseFPS)
	}
	if a.Speedup <= 0 {
		return 0, fmt.Errorf("accel: speedup must be positive, got %v", a.Speedup)
	}
	return baseFPS * a.Speedup, nil
}
