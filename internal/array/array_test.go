package array

import (
	"testing"

	"ppm/internal/codes"
)

func newTestArray(t *testing.T, stripes int) (*Array, *codes.SD) {
	t.Helper()
	sd, err := codes.NewSD(6, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(sd, stripes, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	return a, sd
}

func TestNewArrayEncodesCleanly(t *testing.T) {
	a, _ := newTestArray(t, 4)
	if a.Stripes() != 4 {
		t.Fatalf("stripes = %d", a.Stripes())
	}
	ok, err := a.Verify()
	if err != nil || !ok {
		t.Fatalf("fresh array fails verification: ok=%v err=%v", ok, err)
	}
	if !a.Intact() || a.Degraded() {
		t.Fatal("fresh array state wrong")
	}
	if a.TotalBytes() != 4*6*8*64 {
		t.Fatalf("TotalBytes = %d", a.TotalBytes())
	}
}

func TestDiskFailureRepair(t *testing.T) {
	a, _ := newTestArray(t, 6)
	if err := a.FailDisks(1, 4); err != nil {
		t.Fatal(err)
	}
	if !a.Degraded() || a.Intact() {
		t.Fatal("failure not reflected")
	}
	stats, err := a.Repair(2)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Intact() {
		t.Fatal("repair did not restore the original bytes")
	}
	if a.Degraded() {
		t.Fatal("repair left the array degraded")
	}
	if stats.Stripes != 6 {
		t.Fatalf("repaired %d stripes, want 6", stats.Stripes)
	}
	// All stripes share the failure signature: exactly one plan.
	if stats.PlansBuilt != 1 {
		t.Fatalf("built %d plans, want 1 (identical disk-failure signature)", stats.PlansBuilt)
	}
	if stats.BytesRepaired != int64(6*2*8*64) {
		t.Fatalf("bytes repaired = %d", stats.BytesRepaired)
	}
	if stats.MultXORs <= 0 || stats.String() == "" {
		t.Fatal("stats incomplete")
	}
}

func TestMixedDiskAndSectorRepair(t *testing.T) {
	a, _ := newTestArray(t, 5)
	if err := a.FailDisks(0); err != nil {
		t.Fatal(err)
	}
	// Stripe 2 additionally loses two sectors on surviving disks
	// (columns 1 and 2 of rows 0 and 1).
	if err := a.FailSectors(2, 1, 8); err != nil {
		t.Fatal(err)
	}
	stats, err := a.Repair(4)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Intact() {
		t.Fatal("repair did not restore the original bytes")
	}
	// Two signatures: disk-only and disk+sectors.
	if stats.PlansBuilt != 2 {
		t.Fatalf("built %d plans, want 2", stats.PlansBuilt)
	}
}

// TestLatentErrorOnFailedDisk: a latent sector error on a disk that
// also fails is one lost sector, whichever failure came first.
func TestLatentErrorOnFailedDisk(t *testing.T) {
	for _, diskFirst := range []bool{false, true} {
		a, sd := newTestArray(t, 3)
		// Sector (row 1, disk 2) of stripe 1 sits on the failed disk.
		failDisk := func() error { return a.FailDisks(2) }
		failSector := func() error { return a.FailSectors(1, 1*sd.NumStrips()+2) }
		first, second := failSector, failDisk
		if diskFirst {
			first, second = failDisk, failSector
		}
		if err := first(); err != nil {
			t.Fatal(err)
		}
		if err := second(); err != nil {
			t.Fatal(err)
		}
		stats, err := a.Repair(2)
		if err != nil {
			t.Fatalf("disk first %v: %v", diskFirst, err)
		}
		if stats.Stripes != 3 || !a.Intact() || a.Degraded() {
			t.Fatalf("disk first %v: repair incomplete: %+v", diskFirst, stats)
		}
	}
}

func TestSectorOnlyRepair(t *testing.T) {
	a, _ := newTestArray(t, 3)
	if err := a.FailSectors(1, 7); err != nil {
		t.Fatal(err)
	}
	stats, err := a.Repair(1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stripes != 1 {
		t.Fatalf("repaired %d stripes, want 1", stats.Stripes)
	}
	if !a.Intact() {
		t.Fatal("sector repair wrong")
	}
}

func TestRepairNothing(t *testing.T) {
	a, _ := newTestArray(t, 2)
	stats, err := a.Repair(4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stripes != 0 || stats.PlansBuilt != 0 {
		t.Fatalf("no-op repair did work: %+v", stats)
	}
}

func TestFailureValidation(t *testing.T) {
	a, _ := newTestArray(t, 2)
	if err := a.FailDisks(9); err == nil {
		t.Error("out-of-range disk accepted")
	}
	// A rejected call fails no disk, not even the valid ones before
	// the bad index.
	if err := a.FailDisks(2, 99); err == nil {
		t.Error("out-of-range disk accepted after a valid one")
	}
	if err := a.FailDisks(3, 3); err == nil {
		t.Error("disk listed twice accepted")
	}
	if a.Degraded() || !a.Intact() {
		t.Fatal("rejected FailDisks call left the array degraded")
	}
	if err := a.FailDisks(1); err != nil {
		t.Fatal(err)
	}
	if err := a.FailDisks(1); err == nil {
		t.Error("double disk failure accepted")
	}
	if err := a.FailSectors(5, 0); err == nil {
		t.Error("out-of-range stripe accepted")
	}
	if err := a.FailSectors(0, 999); err == nil {
		t.Error("out-of-range sector accepted")
	}
}

func TestRepairBeyondTolerance(t *testing.T) {
	a, _ := newTestArray(t, 2)
	// m = 2 disks tolerated; failing 3 must be refused at repair time.
	if err := a.FailDisks(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Repair(2); err == nil {
		t.Fatal("3-disk failure repaired by an m=2 code")
	}
}

func TestNewValidation(t *testing.T) {
	sd, err := codes.NewSD(4, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(sd, 0, 64, 1); err == nil {
		t.Error("zero stripes accepted")
	}
	if _, err := New(sd, 1, 3, 1); err == nil {
		t.Error("unaligned sector size accepted")
	}
}
