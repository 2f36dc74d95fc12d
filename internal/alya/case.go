// Package alya drives the two biological use cases of the study — the
// artery CFD case and the artery FSI case — over the simulated MPI, in
// either of two execution modes:
//
//   - ModeReal runs the actual Navier–Stokes / elasticity numerics with
//     real halo payloads (small meshes: tests, examples).
//   - ModeModel steps a workload model of each solver instead: the
//     solvers' per-cell compute costs, and halos and FSI coupling
//     exchanges as size-only messages costed like correctly sized
//     payloads. It neither computes the fields nor allocates them or
//     any message payload (paper-scale meshes: 20–50M cells, up to
//     12,288 ranks).
//
// Both modes run one rank program; the mode only chooses the code value
// a rank steps. ModeModel runs each solver's Step as data, a program of
// its halos, charges and reductions in order; with ModeReal's CG held
// to ModelCGIters iterations the two modes produce the same execution
// event for event (TestExecModesEqual).
package alya

import (
	"fmt"
	"strings"

	"repro/internal/mesh"
	"repro/internal/navier"
	"repro/internal/solid"
)

// Kind distinguishes the two use cases.
type Kind int

// The use cases.
const (
	// CFD is the single-code blood-flow simulation.
	CFD Kind = iota
	// FSI is the two-code fluid–structure simulation.
	FSI
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case CFD:
		return "CFD"
	case FSI:
		return "FSI"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Case is one benchmark configuration of Alya.
type Case struct {
	// Name identifies the case in reports.
	Name string `json:"Name"`
	// Kind selects CFD or FSI.
	Kind Kind `json:"Kind"`
	// FluidMesh is the artery lumen mesh.
	FluidMesh mesh.Mesh `json:"FluidMesh"`
	// SolidMesh is the artery wall mesh (FSI only).
	SolidMesh mesh.Mesh `json:"SolidMesh"`
	// FluidParams and SolidParams configure the physics (ModeReal).
	FluidParams navier.Params `json:"FluidParams"`
	SolidParams solid.Params  `json:"SolidParams"`
	// Steps is the number of physical time steps the reported elapsed
	// time covers (the paper's runs are fixed-length simulations).
	Steps int `json:"Steps"`
	// SimSteps is how many steps are actually simulated; the per-step
	// time is steady-state, so Elapsed = TimePerStep × Steps. Must be
	// ≥ 1 and ≤ Steps.
	SimSteps int `json:"SimSteps"`
	// ModelCGIters fixes the pressure-CG iteration count per step in
	// ModeModel (ModeReal iterates to tolerance).
	ModelCGIters int `json:"ModelCGIters"`
	// SolidSubsteps is how many explicit structural steps run per
	// fluid step (FSI; the wall's stable dt is smaller).
	SolidSubsteps int `json:"SolidSubsteps"`
	// CouplingIters is the number of staggered coupling exchanges per
	// step (FSI).
	CouplingIters int `json:"CouplingIters"`
	// FluidFraction is the share of ranks given to the fluid code
	// (FSI); the remainder runs the solid code.
	FluidFraction float64 `json:"FluidFraction"`
}

// Validate reports an inconsistent case.
func (c *Case) Validate() error {
	if c.Kind != CFD && c.Kind != FSI {
		return fmt.Errorf("alya: case %q has unknown kind %v", c.Name, c.Kind)
	}
	if c.Steps < 1 || c.SimSteps < 1 || c.SimSteps > c.Steps {
		return fmt.Errorf("alya: case %q steps %d / sim steps %d", c.Name, c.Steps, c.SimSteps)
	}
	if c.ModelCGIters < 1 {
		return fmt.Errorf("alya: case %q needs a model CG iteration count", c.Name)
	}
	if c.FluidMesh.Cells() == 0 {
		return fmt.Errorf("alya: case %q has no fluid mesh", c.Name)
	}
	if c.Kind == FSI {
		if c.SolidMesh.Cells() == 0 {
			return fmt.Errorf("alya: FSI case %q has no solid mesh", c.Name)
		}
		if c.FluidFraction <= 0 || c.FluidFraction >= 1 {
			return fmt.Errorf("alya: FSI case %q fluid fraction %v", c.Name, c.FluidFraction)
		}
		if c.SolidSubsteps < 1 || c.CouplingIters < 1 {
			return fmt.Errorf("alya: FSI case %q substeps %d / coupling iters %d",
				c.Name, c.SolidSubsteps, c.CouplingIters)
		}
	}
	return nil
}

func mustMesh(nx, ny, nz int, h float64) mesh.Mesh {
	m, err := mesh.NewMesh(nx, ny, nz, h, h, h)
	if err != nil {
		panic(err)
	}
	return m
}

// ArteryCFDLenox is the Fig. 1 case: the artery CFD simulation sized
// for Lenox's 112 cores (≈20M cells, 45 steps).
func ArteryCFDLenox() Case {
	return Case{
		Name:         "artery-cfd-lenox",
		Kind:         CFD,
		FluidMesh:    mustMesh(288, 288, 240, 1e-4),
		FluidParams:  navier.DefaultParams(),
		Steps:        45,
		SimSteps:     2,
		ModelCGIters: 120,
	}
}

// ArteryCFDCTEPower is the Fig. 2 case: the artery CFD simulation sized
// for CTE-POWER's 2–16 nodes (≈20M cells, 120 steps).
func ArteryCFDCTEPower() Case {
	return Case{
		Name:         "artery-cfd-ctepower",
		Kind:         CFD,
		FluidMesh:    mustMesh(256, 256, 300, 1e-4),
		FluidParams:  navier.DefaultParams(),
		Steps:        120,
		SimSteps:     2,
		ModelCGIters: 100,
	}
}

// ArteryFSIMareNostrum4 is the Fig. 3 case: the coupled artery FSI
// simulation sized to strong-scale to 12,288 cores (fluid ≈52M cells,
// wall ≈14M cells).
func ArteryFSIMareNostrum4() Case {
	return Case{
		Name:          "artery-fsi-mn4",
		Kind:          FSI,
		FluidMesh:     mustMesh(384, 384, 352, 5e-5),
		SolidMesh:     mustMesh(384, 384, 96, 5e-5),
		FluidParams:   navier.DefaultParams(),
		SolidParams:   solid.DefaultParams(),
		Steps:         100,
		SimSteps:      1,
		ModelCGIters:  100,
		SolidSubsteps: 2,
		CouplingIters: 2,
		FluidFraction: 0.75,
	}
}

// CaseNames lists the named cases a scenario spec can select, in
// paper order.
func CaseNames() []string {
	return []string{"artery-cfd-lenox", "artery-cfd-ctepower", "artery-fsi-mn4", "quick-cfd", "quick-fsi"}
}

// CaseByName finds a named case. The quick cases default to 5 steps;
// callers wanting a different length override Steps/SimSteps on the
// returned value (scenario specs expose exactly that).
func CaseByName(name string) (Case, error) {
	switch name {
	case "artery-cfd-lenox":
		return ArteryCFDLenox(), nil
	case "artery-cfd-ctepower":
		return ArteryCFDCTEPower(), nil
	case "artery-fsi-mn4":
		return ArteryFSIMareNostrum4(), nil
	case "quick-cfd":
		return QuickCFD(5), nil
	case "quick-fsi":
		return QuickFSI(5), nil
	}
	return Case{}, fmt.Errorf("alya: unknown case %q (known: %s)", name, strings.Join(CaseNames(), ", "))
}

// QuickCFD is a laptop-scale CFD case for tests and the quickstart
// example: real numerics finish in well under a second.
func QuickCFD(steps int) Case {
	p := navier.DefaultParams()
	p.Dt = 5e-4
	p.CGTol = 1e-7
	return Case{
		Name:         "quick-cfd",
		Kind:         CFD,
		FluidMesh:    mustMesh(16, 16, 24, 1e-3),
		FluidParams:  p,
		Steps:        steps,
		SimSteps:     steps,
		ModelCGIters: 40,
	}
}

// QuickFSI is a laptop-scale FSI case for tests and examples.
func QuickFSI(steps int) Case {
	fp := navier.DefaultParams()
	fp.Dt = 5e-4
	sp := solid.DefaultParams()
	sp.Dt = 5e-6
	return Case{
		Name:          "quick-fsi",
		Kind:          FSI,
		FluidMesh:     mustMesh(12, 12, 16, 1e-3),
		SolidMesh:     mustMesh(12, 12, 8, 1e-3),
		FluidParams:   fp,
		SolidParams:   sp,
		Steps:         steps,
		SimSteps:      steps,
		ModelCGIters:  30,
		SolidSubsteps: 2,
		CouplingIters: 2,
		FluidFraction: 0.5,
	}
}
