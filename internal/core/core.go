// Package core is the study engine — the paper's primary contribution
// expressed as code. A Cell is one measurement: a container runtime
// (or bare metal) executing an Alya case on a cluster in a given hybrid
// configuration; RunCell deploys the image, derives the execution
// profile, runs the case over the simulated MPI, and returns both the
// deployment and the execution metrics that the paper's evaluation
// sections compare.
package core

import (
	"fmt"

	"repro/internal/alya"
	"repro/internal/cluster"
	"repro/internal/container"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/vtime"
)

// Cell is one measurement of the study.
type Cell struct {
	// Cluster is the target machine.
	Cluster *cluster.Cluster
	// Runtime is the container technology (BareMetal for reference).
	Runtime container.Runtime
	// Image is the runtime-format image; nil for bare metal.
	Image *container.Image
	// Case is the Alya configuration.
	Case alya.Case
	// Nodes, Ranks, Threads define the hybrid configuration.
	Nodes, Ranks, Threads int
	// Placement is the rank distribution (default block).
	Placement sched.Placement
	// Mode selects real numerics or the workload model.
	Mode alya.Mode
	// Allreduce picks the collective algorithm.
	Allreduce mpi.AllreduceAlgo
	// Log, when non-nil, records the execution's events (see
	// mpi.Config). It never influences the measurement — canonCell
	// excludes it from the cell's fingerprint, and sweeps strip it from
	// results before persisting or comparing.
	Log *vtime.Log
}

// Result is one cell's full outcome.
type Result struct {
	// Cell echoes the configuration.
	Cell Cell
	// Deploy is the image-staging breakdown.
	Deploy container.DeployReport
	// Exec is the execution outcome.
	Exec alya.Result
}

// RunCell executes one measurement.
func RunCell(c Cell) (Result, error) {
	if c.Cluster == nil || c.Runtime == nil {
		return Result{}, fmt.Errorf("core: cell needs a cluster and a runtime")
	}
	if err := c.Runtime.Available(c.Cluster); err != nil {
		return Result{}, err
	}

	profile, err := c.Runtime.ExecProfile(c.Cluster, c.Image)
	if err != nil {
		return Result{}, err
	}
	deploy, err := c.Runtime.Deploy(c.Cluster, c.Image, c.Nodes)
	if err != nil {
		return Result{}, err
	}
	job, err := sched.Plan(c.Cluster, c.Nodes, c.Ranks, c.Threads, c.Placement)
	if err != nil {
		return Result{}, err
	}
	exec, err := alya.Run(alya.Spec{
		Job:       job,
		Profile:   profile,
		Case:      c.Case,
		Mode:      c.Mode,
		Allreduce: c.Allreduce,
		Log:       c.Log,
	})
	if err != nil {
		return Result{}, err
	}
	return Result{Cell: c, Deploy: deploy, Exec: exec}, nil
}

// BuildImageFor builds the OCI image for a cluster with the given
// technique and converts it to the runtime's executable format. It
// returns nil for bare metal.
func BuildImageFor(rt container.Runtime, c *cluster.Cluster, kind container.BuildKind) (*container.Image, error) {
	if _, ok := rt.(container.BareMetal); ok {
		return nil, nil
	}
	spec := container.BuildSpec{
		Name: "bsc/alya",
		Tag:  "v2.0",
		Arch: c.ISA(),
		Kind: kind,
		App:  "alya",
	}
	if kind == container.SystemSpecific {
		spec.HostABI = c.HostABI
	}
	oci, err := container.BuildOCI(spec)
	if err != nil {
		return nil, err
	}
	return rt.ImageFor(oci)
}
