package accel

import (
	"math"
	"testing"
)

func TestTensorRTCalibration(t *testing.T) {
	a := TensorRT()
	got, err := a.Apply(27.7)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Fig 2a: YOLOX 27.7 → 753.9 FPS.
	if math.Abs(got-753.9) > 1e-9 {
		t.Errorf("TRT(27.7) = %v, want 753.9", got)
	}
}

func TestNoneIsIdentity(t *testing.T) {
	got, err := None().Apply(100)
	if err != nil || got != 100 {
		t.Errorf("None().Apply(100) = %v, %v", got, err)
	}
}

func TestApplyValidation(t *testing.T) {
	if _, err := TensorRT().Apply(0); err == nil {
		t.Error("zero FPS must error")
	}
	if _, err := (Accelerator{Speedup: 0}).Apply(10); err == nil {
		t.Error("zero speedup must error")
	}
}
