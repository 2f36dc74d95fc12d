package storage

import (
	"math"
	"testing"

	"repro/internal/units"
)

func fs() ParallelFS {
	return ParallelFS{
		Name:            "gpfs",
		AggregateBW:     10 * units.GBps,
		PerClientBW:     2 * units.GBps,
		MetadataLatency: units.Millisecond,
	}
}

func TestReadTimeSingleClient(t *testing.T) {
	f := fs()
	got := f.ReadTime(2*units.GB, 1)
	want := units.Millisecond + units.Second // 2GB at 2GB/s per-client cap
	if math.Abs(float64(got-want)) > 1e-9 {
		t.Fatalf("read time %v, want %v", got, want)
	}
}

func TestReadTimeAggregateCap(t *testing.T) {
	f := fs()
	// 10 clients: fair share 1 GB/s < per-client 2 GB/s.
	got := f.ReadTime(1*units.GB, 10)
	want := units.Millisecond + units.Second
	if math.Abs(float64(got-want)) > 1e-9 {
		t.Fatalf("contended read time %v, want %v", got, want)
	}
	// More clients can never make an individual read faster.
	if f.ReadTime(units.GB, 20) < f.ReadTime(units.GB, 2) {
		t.Fatal("contention made reads faster")
	}
}

func TestReadZeroClientsClamped(t *testing.T) {
	f := fs()
	if f.ReadTime(units.GB, 0) != f.ReadTime(units.GB, 1) {
		t.Fatal("0 clients should behave as 1")
	}
}

func TestWriteMirrorsRead(t *testing.T) {
	f := fs()
	if f.WriteTime(3*units.GB, 4) != f.ReadTime(3*units.GB, 4) {
		t.Fatal("write/read asymmetry unexpected for this model")
	}
}

func TestValidate(t *testing.T) {
	bad := ParallelFS{Name: "x"}
	if bad.Validate() == nil {
		t.Fatal("zero-bandwidth fs should fail validation")
	}
	d := LocalDisk{Name: "d"}
	if d.Validate() == nil {
		t.Fatal("zero-bandwidth disk should fail validation")
	}
	good := fs()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLocalDisk(t *testing.T) {
	d := LocalDisk{Name: "ssd", ReadBW: 500 * units.MBps, WriteBW: 250 * units.MBps}
	if got := d.ReadTime(500 * units.MB); math.Abs(float64(got-units.Second)) > 1e-9 {
		t.Fatalf("read %v", got)
	}
	if got := d.WriteTime(500 * units.MB); math.Abs(float64(got-2*units.Second)) > 1e-9 {
		t.Fatalf("write %v", got)
	}
}
