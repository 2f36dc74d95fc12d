// Package appio models application I/O through container storage
// paths — the paper's explicitly named future work ("a deeper
// evaluation of I/O and distributed storage performance using
// containers").
//
// The workload is Alya's checkpoint/result output: every rank
// periodically writes its subdomain fields. What differs per runtime is
// the path those bytes take:
//
//   - Bare metal, Singularity, Shifter: the parallel filesystem is
//     bind-mounted into the (or no) container; writes go straight to
//     GPFS/NFS at native speed, contending only for the filesystem's
//     aggregate bandwidth.
//   - Docker (container filesystem): writes land in the overlay storage
//     driver's upper layer on node-local disk — every first write to a
//     lower-layer file pays a copy-up, every write goes through the
//     overlay — and results must then be staged out to the shared
//     filesystem after the run to survive container removal.
//   - Docker (volume): a host directory is mounted as a volume; writes
//     bypass the overlay at near-native local speed but still need the
//     stage-out copy to the shared filesystem.
package appio

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/units"
)

// Path is the storage route application writes take.
type Path int

// Available paths.
const (
	// PathBindMount writes straight to the shared parallel filesystem
	// (bare metal, Singularity and Shifter bind mounts).
	PathBindMount Path = iota
	// PathOverlay writes into Docker's overlay upper layer on local
	// disk and stages results out afterwards.
	PathOverlay
	// PathVolume writes to a Docker volume on local disk and stages
	// results out afterwards.
	PathVolume
)

// String names the path.
func (p Path) String() string {
	switch p {
	case PathBindMount:
		return "bind-mount"
	case PathOverlay:
		return "overlay"
	case PathVolume:
		return "volume"
	default:
		return fmt.Sprintf("path(%d)", int(p))
	}
}

// Checkpoint describes one output dump of the application.
type Checkpoint struct {
	// Cells is the global mesh size.
	Cells int
	// Fields is the number of scalar fields written (u,v,w,p = 4 for
	// the CFD case; 7 with the wall displacement for FSI).
	Fields int
	// BytesPerValue is the storage width (8 for raw doubles).
	BytesPerValue int
	// FilesPerRank is how many files each rank creates per dump
	// (Alya writes one per field by default).
	FilesPerRank int
}

// Size returns the global checkpoint size.
func (c Checkpoint) Size() units.ByteSize {
	return units.ByteSize(c.Cells * c.Fields * c.BytesPerValue)
}

// Validate reports an inconsistent spec.
func (c Checkpoint) Validate() error {
	if c.Cells <= 0 || c.Fields <= 0 || c.BytesPerValue <= 0 || c.FilesPerRank <= 0 {
		return fmt.Errorf("appio: bad checkpoint spec %+v", c)
	}
	return nil
}

// Model holds the path-specific cost constants.
type Model struct {
	// OverlayCopyUpPenalty multiplies write bandwidth for overlay
	// writes (copy-up + d_type bookkeeping on 2016-era overlay).
	OverlayCopyUpPenalty float64
	// OverlayMetadataPerFile is the overlay per-file open cost.
	OverlayMetadataPerFile units.Seconds
	// VolumePenalty multiplies write bandwidth for volume writes
	// (near-native; the bind path through the mount namespace).
	VolumePenalty float64
}

// DefaultModel returns calibrated constants.
func DefaultModel() Model {
	return Model{
		OverlayCopyUpPenalty:   0.55,
		OverlayMetadataPerFile: 3 * units.Millisecond,
		VolumePenalty:          0.97,
	}
}

// Report breaks one checkpoint's write time down.
type Report struct {
	// Path is the storage route.
	Path Path
	// Size is the global checkpoint size.
	Size units.ByteSize
	// WriteTime is the in-run write cost (what the solver waits for).
	WriteTime units.Seconds
	// StageOutTime is the post-run copy to the shared filesystem
	// (zero on the bind-mount path).
	StageOutTime units.Seconds
	// MetadataTime is file-creation overhead across ranks.
	MetadataTime units.Seconds
}

// Total is the full cost attributable to one checkpoint.
func (r Report) Total() units.Seconds {
	return r.WriteTime + r.StageOutTime + r.MetadataTime
}

// CheckpointTime computes the cost of one checkpoint written by a job
// of the given nodes and ranks on cluster cl through path p.
func (m Model) CheckpointTime(cl *cluster.Cluster, nodes, ranks int, ck Checkpoint, p Path) (Report, error) {
	if err := ck.Validate(); err != nil {
		return Report{}, err
	}
	if nodes < 1 || ranks < nodes {
		return Report{}, fmt.Errorf("appio: %d nodes / %d ranks", nodes, ranks)
	}
	size := ck.Size()
	perNode := size / units.ByteSize(nodes)
	rep := Report{Path: p, Size: size}
	switch p {
	case PathBindMount:
		// All nodes write concurrently to the shared filesystem.
		rep.WriteTime = cl.SharedFS.WriteTime(perNode, nodes)
		rep.MetadataTime = cl.SharedFS.MetadataLatency * units.Seconds(ck.FilesPerRank*ranks/nodes)
	case PathOverlay:
		bw := units.Rate(float64(cl.LocalDisk.WriteBW) * m.OverlayCopyUpPenalty)
		rep.WriteTime = bw.TimeFor(perNode)
		rep.MetadataTime = m.OverlayMetadataPerFile * units.Seconds(ck.FilesPerRank*ranks/nodes)
		// Stage-out: read back from local disk and write to the shared
		// filesystem, all nodes concurrently.
		rep.StageOutTime = cl.LocalDisk.ReadTime(perNode) + cl.SharedFS.WriteTime(perNode, nodes)
	case PathVolume:
		bw := units.Rate(float64(cl.LocalDisk.WriteBW) * m.VolumePenalty)
		rep.WriteTime = bw.TimeFor(perNode)
		rep.MetadataTime = cl.SharedFS.MetadataLatency * units.Seconds(ck.FilesPerRank*ranks/nodes)
		rep.StageOutTime = cl.LocalDisk.ReadTime(perNode) + cl.SharedFS.WriteTime(perNode, nodes)
	default:
		return Report{}, fmt.Errorf("appio: unknown path %d", int(p))
	}
	return rep, nil
}
