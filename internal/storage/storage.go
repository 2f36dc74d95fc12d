// Package storage models the data stores that container deployment
// moves bytes through: a shared parallel filesystem (GPFS/Lustre
// class) and node-local disks.
//
// Deployment overhead — one of the paper's three §B.1 comparison
// metrics — is dominated by where image bytes live and how many times
// they cross which link, so these models are deliberately explicit
// about aggregate vs per-client bandwidth.
package storage

import (
	"fmt"

	"repro/internal/units"
)

// ParallelFS is a shared cluster filesystem. Reads from many nodes
// contend for the aggregate backend bandwidth but are also capped
// per-client; metadata operations pay a fixed latency.
type ParallelFS struct {
	// Name identifies the filesystem in reports.
	Name string `json:"Name"`
	// AggregateBW is the backend bandwidth shared by all clients.
	AggregateBW units.Rate `json:"AggregateBW"`
	// PerClientBW caps what a single node can pull.
	PerClientBW units.Rate `json:"PerClientBW"`
	// MetadataLatency is the cost of an open/stat.
	MetadataLatency units.Seconds `json:"MetadataLatency"`
}

// Validate reports a misconfigured filesystem.
func (fs *ParallelFS) Validate() error {
	if fs.AggregateBW <= 0 || fs.PerClientBW <= 0 {
		return fmt.Errorf("storage: filesystem %q has no bandwidth", fs.Name)
	}
	if fs.MetadataLatency < 0 {
		return fmt.Errorf("storage: filesystem %q has negative metadata latency", fs.Name)
	}
	return nil
}

// ReadTime is the time for `clients` nodes to each read `size` bytes
// concurrently: per-client bandwidth capped by the fair share of the
// aggregate backend, plus one metadata operation.
func (fs *ParallelFS) ReadTime(size units.ByteSize, clients int) units.Seconds {
	if clients < 1 {
		clients = 1
	}
	bw := fs.PerClientBW
	share := units.Rate(float64(fs.AggregateBW) / float64(clients))
	if share < bw {
		bw = share
	}
	return fs.MetadataLatency + bw.TimeFor(size)
}

// WriteTime mirrors ReadTime; parallel filesystems in this study are
// roughly symmetric for large sequential IO.
func (fs *ParallelFS) WriteTime(size units.ByteSize, clients int) units.Seconds {
	return fs.ReadTime(size, clients)
}

// LocalDisk is a node-local drive used by Docker's storage driver.
type LocalDisk struct {
	// Name identifies the disk model in reports.
	Name string `json:"Name"`
	// ReadBW and WriteBW are sequential bandwidths.
	ReadBW  units.Rate `json:"ReadBW"`
	WriteBW units.Rate `json:"WriteBW"`
}

// Validate reports a misconfigured disk.
func (d *LocalDisk) Validate() error {
	if d.ReadBW <= 0 || d.WriteBW <= 0 {
		return fmt.Errorf("storage: disk %q has no bandwidth", d.Name)
	}
	return nil
}

// WriteTime is the time to persist size bytes locally.
func (d *LocalDisk) WriteTime(size units.ByteSize) units.Seconds {
	return d.WriteBW.TimeFor(size)
}

// ReadTime is the time to load size bytes locally.
func (d *LocalDisk) ReadTime(size units.ByteSize) units.Seconds {
	return d.ReadBW.TimeFor(size)
}
