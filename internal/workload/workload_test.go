package workload

import (
	"testing"

	"ppm/internal/codes"
)

func TestTraces(t *testing.T) {
	u := UniformTrace(10, 64, 500, 1)
	if len(u) != 500 {
		t.Fatalf("trace length %d", len(u))
	}
	for _, r := range u {
		if r.StripeIdx < 0 || r.StripeIdx >= 10 || r.Sector < 0 || r.Sector >= 64 {
			t.Fatalf("out-of-range read %+v", r)
		}
	}
	// Deterministic under a seed.
	u2 := UniformTrace(10, 64, 500, 1)
	for i := range u {
		if u[i] != u2[i] {
			t.Fatal("trace not reproducible")
		}
	}

	z := ZipfTrace(10, 64, 2000, 2)
	counts := map[int]int{}
	for _, r := range z {
		if r.StripeIdx < 0 || r.StripeIdx >= 10 {
			t.Fatalf("zipf stripe %d out of range", r.StripeIdx)
		}
		counts[r.StripeIdx]++
	}
	if counts[0] <= counts[9] {
		t.Fatalf("zipf not skewed: hot=%d cold=%d", counts[0], counts[9])
	}
}

func TestVolumeHealthyOnly(t *testing.T) {
	lrc, err := codes.NewLRC(12, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVolume(lrc, 4, 256, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := v.Serve(UniformTrace(4, 17, 200, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != 0 || res.Reads != 200 {
		t.Fatalf("result %+v", res)
	}
	if res.Healthy.Count != 200 || res.Healthy.P99 <= 0 {
		t.Fatalf("healthy stats %+v", res.Healthy)
	}
}

func TestVolumeDegradedReads(t *testing.T) {
	lrc, err := codes.NewLRC(12, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Block 2 (in local group 0) is transiently unavailable.
	v, err := NewVolume(lrc, 3, 256, []int{2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := v.Serve(UniformTrace(3, 17, 400, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded == 0 {
		t.Fatal("no degraded reads despite a failed block")
	}
	// LRC degraded reads use the local group only: group size 4 -> 4
	// region ops per read.
	if res.Repair.MultXORsPerOp != 4 {
		t.Fatalf("ops/read = %.1f, want 4 (local group repair)", res.Repair.MultXORsPerOp)
	}
	if res.Repair.P50 <= 0 || res.Repair.Count != res.Degraded {
		t.Fatalf("repair stats %+v", res.Repair)
	}
}

func TestVolumeRSWiderThanLRC(t *testing.T) {
	lrc, err := codes.NewLRC(12, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := codes.NewRS(17, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	lv, err := NewVolume(lrc, 2, 256, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := NewVolume(rs, 2, 256, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	trace := []Read{{0, 0}, {1, 0}, {0, 0}}
	lres, err := lv.Serve(trace)
	if err != nil {
		t.Fatal(err)
	}
	rres, err := rv.Serve(trace)
	if err != nil {
		t.Fatal(err)
	}
	if lres.Repair.MultXORsPerOp >= rres.Repair.MultXORsPerOp {
		t.Fatalf("LRC repair width %.1f not below RS %.1f",
			lres.Repair.MultXORsPerOp, rres.Repair.MultXORsPerOp)
	}
}

func TestVolumeValidation(t *testing.T) {
	lrc, err := codes.NewLRC(6, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewVolume(lrc, 0, 256, nil, 1); err == nil {
		t.Error("zero stripes accepted")
	}
	if _, err := NewVolume(lrc, 1, 256, []int{99}, 1); err == nil {
		t.Error("out-of-range disk accepted")
	}
	v, err := NewVolume(lrc, 1, 256, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Serve([]Read{{5, 0}}); err == nil {
		t.Error("out-of-range stripe read accepted")
	}
	if _, err := v.Serve([]Read{{0, 999}}); err == nil {
		t.Error("out-of-range sector read accepted")
	}
}

// TestVolumeCorrectContent: a degraded read returns the original bytes.
func TestVolumeCorrectContent(t *testing.T) {
	sd, err := codes.NewSD(6, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Reference stripe with the same seed the volume uses.
	v, err := NewVolume(sd, 1, 64, []int{1}, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Serve a degraded read of sector (row 2, disk 1) = 2*6+1 = 13.
	res, err := v.Serve([]Read{{0, 13}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != 1 {
		t.Fatalf("expected one degraded read, got %+v", res)
	}
}

func BenchmarkServeDegradedTrace(b *testing.B) {
	lrc, err := codes.NewLRC(12, 3, 2)
	if err != nil {
		b.Fatal(err)
	}
	v, err := NewVolume(lrc, 4, 4096, []int{2}, 1)
	if err != nil {
		b.Fatal(err)
	}
	trace := UniformTrace(4, 17, 200, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Serve(trace); err != nil {
			b.Fatal(err)
		}
	}
}
