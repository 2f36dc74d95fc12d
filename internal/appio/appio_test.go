package appio

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/units"
)

func spec() Checkpoint {
	return Checkpoint{Cells: 1 << 20, Fields: 4, BytesPerValue: 8, FilesPerRank: 4}
}

func TestCheckpointSize(t *testing.T) {
	ck := spec()
	if ck.Size() != 32*units.MiB {
		t.Fatalf("size %v", ck.Size())
	}
}

func TestValidate(t *testing.T) {
	bad := []Checkpoint{
		{},
		{Cells: 1, Fields: 0, BytesPerValue: 8, FilesPerRank: 1},
		{Cells: 1, Fields: 1, BytesPerValue: 0, FilesPerRank: 1},
	}
	for i, ck := range bad {
		if ck.Validate() == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	m := DefaultModel()
	if _, err := m.CheckpointTime(cluster.Lenox(), 0, 0, spec(), PathBindMount); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := m.CheckpointTime(cluster.Lenox(), 2, 56, spec(), Path(99)); err == nil {
		t.Error("unknown path accepted")
	}
}

func TestOverlaySlowerThanVolumeSlowerThanNothing(t *testing.T) {
	m := DefaultModel()
	lenox := cluster.Lenox()
	ck := spec()
	overlay, err := m.CheckpointTime(lenox, 2, 56, ck, PathOverlay)
	if err != nil {
		t.Fatal(err)
	}
	volume, err := m.CheckpointTime(lenox, 2, 56, ck, PathVolume)
	if err != nil {
		t.Fatal(err)
	}
	bind, err := m.CheckpointTime(lenox, 2, 56, ck, PathBindMount)
	if err != nil {
		t.Fatal(err)
	}
	// In-run write cost: overlay pays the copy-up penalty over volume.
	if overlay.WriteTime <= volume.WriteTime {
		t.Errorf("overlay write %v not above volume %v", overlay.WriteTime, volume.WriteTime)
	}
	// Docker paths pay the stage-out; the bind path does not.
	if bind.StageOutTime != 0 {
		t.Errorf("bind path stages out: %v", bind.StageOutTime)
	}
	if overlay.StageOutTime <= 0 || volume.StageOutTime <= 0 {
		t.Error("docker paths must stage out")
	}
	// Total cost ordering: both Docker paths above bind-mount.
	if overlay.Total() <= bind.Total() || volume.Total() <= bind.Total() {
		t.Errorf("docker I/O (%v / %v) not above bind mount (%v)",
			overlay.Total(), volume.Total(), bind.Total())
	}
}

func TestMoreNodesSpreadWrites(t *testing.T) {
	// On a machine whose aggregate FS bandwidth exceeds one client's,
	// more nodes cut the per-checkpoint wall time.
	m := DefaultModel()
	mn4 := cluster.MareNostrum4()
	ck := Checkpoint{Cells: 1 << 26, Fields: 4, BytesPerValue: 8, FilesPerRank: 4}
	one, err := m.CheckpointTime(mn4, 1, 48, ck, PathBindMount)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := m.CheckpointTime(mn4, 8, 8*48, ck, PathBindMount)
	if err != nil {
		t.Fatal(err)
	}
	if eight.WriteTime >= one.WriteTime {
		t.Fatalf("8 nodes (%v) not faster than 1 (%v)", eight.WriteTime, one.WriteTime)
	}
}

func TestPathStrings(t *testing.T) {
	if PathBindMount.String() != "bind-mount" || PathOverlay.String() != "overlay" ||
		PathVolume.String() != "volume" {
		t.Fatal("path names wrong")
	}
}
