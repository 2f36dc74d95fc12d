package container

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/topology"
	"repro/internal/units"
)

func buildOCI(t *testing.T, arch topology.ISA, kind BuildKind, abi string) *Image {
	t.Helper()
	img, err := BuildOCI(BuildSpec{
		Name: "bsc/alya", Tag: "test", Arch: arch, Kind: kind, HostABI: abi, App: "alya",
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestBuildOCIValidation(t *testing.T) {
	if _, err := BuildOCI(BuildSpec{}); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := BuildOCI(BuildSpec{Name: "x", App: "a", Kind: SystemSpecific}); err == nil {
		t.Error("system-specific without host ABI accepted")
	}
	img, err := BuildOCI(BuildSpec{Name: "x", App: "a", Kind: SelfContained, Arch: topology.AMD64})
	if err != nil {
		t.Fatal(err)
	}
	if img.Tag != "latest" {
		t.Errorf("default tag %q", img.Tag)
	}
	if img.HostABI != "" {
		t.Error("self-contained image must not carry a host ABI")
	}
}

func TestSelfContainedBiggerThanSystemSpecific(t *testing.T) {
	sys := buildOCI(t, topology.AMD64, SystemSpecific, "abi-x")
	self := buildOCI(t, topology.AMD64, SelfContained, "")
	if self.Size() <= sys.Size() {
		t.Fatalf("self-contained %v not bigger than system-specific %v (bundled MPI missing?)",
			self.Size(), sys.Size())
	}
}

func TestLayerDedupAcrossBuilds(t *testing.T) {
	a := buildOCI(t, topology.AMD64, SelfContained, "")
	b := buildOCI(t, topology.AMD64, SelfContained, "")
	for i := range a.Layers {
		if a.Layers[i].Digest != b.Layers[i].Digest {
			t.Fatalf("identical builds produced different layer digests at %d", i)
		}
	}
	// A different architecture must change every digest.
	c := buildOCI(t, topology.ARM64, SelfContained, "")
	for i := range a.Layers {
		if a.Layers[i].Digest == c.Layers[i].Digest {
			t.Fatalf("arch change kept digest of layer %d (%s)", i, a.Layers[i].Description)
		}
	}
}

func TestConversionShrinksAndFlattens(t *testing.T) {
	oci := buildOCI(t, topology.AMD64, SystemSpecific, "abi-x")
	sif, err := ConvertToSIF(oci)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := ConvertToSquashFS(oci)
	if err != nil {
		t.Fatal(err)
	}
	if len(sif.Layers) != 1 || len(sq.Layers) != 1 {
		t.Fatal("converted images must be single-layer")
	}
	if sif.Size() != oci.Size() {
		t.Fatal("conversion changed uncompressed size")
	}
	if sif.CompressedSize() >= oci.CompressedSize() {
		t.Fatalf("SIF (%v) should compress better than gzip layers (%v)",
			sif.CompressedSize(), oci.CompressedSize())
	}
	if sif.CompressedSize() >= sq.CompressedSize() {
		t.Fatalf("SIF xz (%v) should beat squashfs gzip (%v)",
			sif.CompressedSize(), sq.CompressedSize())
	}
	// Converting a non-OCI image is an error.
	if _, err := ConvertToSIF(sif); err == nil {
		t.Fatal("double conversion accepted")
	}
}

func TestDockerNeedsRoot(t *testing.T) {
	d := Docker{}
	if err := d.Available(cluster.Lenox()); err != nil {
		t.Fatalf("Docker must be available on Lenox: %v", err)
	}
	for _, cl := range []*cluster.Cluster{cluster.MareNostrum4(), cluster.CTEPower(), cluster.ThunderX()} {
		err := d.Available(cl)
		if !errors.Is(err, ErrNeedsRoot) {
			t.Errorf("%s: Docker availability = %v, want ErrNeedsRoot", cl.Name, err)
		}
	}
	// Shifter's gateway likewise.
	if err := (Shifter{}).Available(cluster.MareNostrum4()); !errors.Is(err, ErrNeedsRoot) {
		t.Errorf("Shifter on MN4: %v", err)
	}
	// Singularity runs everywhere.
	for _, cl := range cluster.All() {
		if err := (Singularity{}).Available(cl); err != nil {
			t.Errorf("Singularity on %s: %v", cl.Name, err)
		}
	}
}

func TestArchCompat(t *testing.T) {
	s := Singularity{}
	mn4 := cluster.MareNostrum4()
	armOCI := buildOCI(t, topology.ARM64, SelfContained, "")
	armSIF, _ := s.ImageFor(armOCI)
	_, err := s.ExecProfile(mn4, armSIF)
	if !errors.Is(err, ErrWrongArch) {
		t.Fatalf("arm image on Skylake: %v, want ErrWrongArch", err)
	}
}

func TestHostABICompat(t *testing.T) {
	s := Singularity{}
	mn4 := cluster.MareNostrum4()
	lenoxImg := buildOCI(t, topology.AMD64, SystemSpecific, cluster.Lenox().HostABI)
	sif, _ := s.ImageFor(lenoxImg)
	_, err := s.ExecProfile(mn4, sif)
	if !errors.Is(err, ErrHostABI) {
		t.Fatalf("lenox-ABI image on MN4: %v, want ErrHostABI", err)
	}
}

func TestExecProfilesTransportPolicy(t *testing.T) {
	mn4 := cluster.MareNostrum4()
	s := Singularity{}

	sysOCI := buildOCI(t, topology.AMD64, SystemSpecific, mn4.HostABI)
	sysSIF, _ := s.ImageFor(sysOCI)
	sys, err := s.ExecProfile(mn4, sysSIF)
	if err != nil {
		t.Fatal(err)
	}
	if sys.InterNode.Name != mn4.Interconnect.Native.Name {
		t.Errorf("system-specific inter-node path %q, want native", sys.InterNode.Name)
	}
	if sys.IntraNode.Name != "shm" {
		t.Errorf("system-specific intra-node path %q, want shm", sys.IntraNode.Name)
	}

	selfOCI := buildOCI(t, topology.AMD64, SelfContained, "")
	selfSIF, _ := s.ImageFor(selfOCI)
	self, err := s.ExecProfile(mn4, selfSIF)
	if err != nil {
		t.Fatal(err)
	}
	if self.InterNode.Name != mn4.Interconnect.TCPFallback.Name {
		t.Errorf("self-contained inter-node path %q, want TCP fallback", self.InterNode.Name)
	}
	if self.IntraNode.Name != "shm" {
		t.Errorf("self-contained intra-node path %q, want shm (host IPC namespace)", self.IntraNode.Name)
	}
}

func TestDockerProfileIsolation(t *testing.T) {
	lenox := cluster.Lenox()
	d := Docker{}
	img := buildOCI(t, topology.AMD64, SystemSpecific, lenox.HostABI)
	p, err := d.ExecProfile(lenox, img)
	if err != nil {
		t.Fatal(err)
	}
	if p.IntraNode.Name != "docker-bridge" {
		t.Errorf("docker intra-node path %q, want docker-bridge", p.IntraNode.Name)
	}
	if !strings.Contains(p.InterNode.Name, "nat") {
		t.Errorf("docker inter-node path %q, want NAT", p.InterNode.Name)
	}
	if p.ComputeDilation <= 1 {
		t.Errorf("docker compute dilation %v, want > 1", p.ComputeDilation)
	}
	if p.LaunchPerRank <= (Singularity{}).mustProfile(t, lenox).LaunchPerRank {
		t.Errorf("docker per-rank launch should exceed singularity's")
	}
}

// mustProfile builds a matching image and returns the profile.
func (s Singularity) mustProfile(t *testing.T, cl *cluster.Cluster) ExecProfile {
	t.Helper()
	oci, err := BuildOCI(BuildSpec{
		Name: "x", App: "a", Arch: cl.ISA(), Kind: SystemSpecific, HostABI: cl.HostABI,
	})
	if err != nil {
		t.Fatal(err)
	}
	sif, err := s.ImageFor(oci)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.ExecProfile(cl, sif)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBareMetalProfile(t *testing.T) {
	for _, cl := range cluster.All() {
		p, err := (BareMetal{}).ExecProfile(cl, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.ComputeDilation != 1 || p.LaunchPerRank != 0 {
			t.Errorf("%s: bare metal has container costs: %+v", cl.Name, p)
		}
		if p.InterNode.Name != cl.Interconnect.Native.Name {
			t.Errorf("%s: bare metal not on native fabric", cl.Name)
		}
	}
}

func TestDeployScaling(t *testing.T) {
	lenox := cluster.Lenox()
	d := Docker{}
	img := buildOCI(t, topology.AMD64, SystemSpecific, lenox.HostABI)

	r1, err := d.Deploy(lenox, img, 1)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := d.Deploy(lenox, img, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Docker pulls per node: wire traffic and pull time must scale.
	if r4.WireSize != 4*r1.WireSize {
		t.Errorf("docker wire: %v at 4 nodes vs %v at 1", r4.WireSize, r1.WireSize)
	}
	if r4.PullTime <= r1.PullTime {
		t.Error("docker pull time did not grow with nodes")
	}

	s := Singularity{}
	sif, _ := s.ImageFor(img)
	s1, err := s.Deploy(lenox, sif, 1)
	if err != nil {
		t.Fatal(err)
	}
	s4, err := s.Deploy(lenox, sif, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Singularity pulls once; only the tiny per-node start grows.
	if s4.WireSize != s1.WireSize {
		t.Error("singularity wire traffic grew with nodes")
	}
	if s4.PullTime != s1.PullTime {
		t.Error("singularity pull time grew with nodes")
	}
	if s4.Total() <= s1.Total() {
		t.Error("per-node start cost missing")
	}
	// At full allocation, Docker deployment must dominate.
	if r4.Total() <= s4.Total() {
		t.Errorf("docker deploy %v not above singularity %v at 4 nodes", r4.Total(), s4.Total())
	}
}

func TestDeployRejectsWrongFormat(t *testing.T) {
	lenox := cluster.Lenox()
	img := buildOCI(t, topology.AMD64, SystemSpecific, lenox.HostABI)
	sif, _ := ConvertToSIF(img)
	if _, err := (Docker{}).Deploy(lenox, sif, 1); !errors.Is(err, ErrWrongFormat) {
		t.Errorf("docker deploying SIF: %v", err)
	}
	if _, err := (Singularity{}).Deploy(lenox, img, 1); !errors.Is(err, ErrWrongFormat) {
		t.Errorf("singularity deploying OCI: %v", err)
	}
	if _, err := (Shifter{}).Deploy(lenox, sif, 1); !errors.Is(err, ErrWrongFormat) {
		t.Errorf("shifter deploying SIF: %v", err)
	}
}

func TestRuntimesList(t *testing.T) {
	rts := Runtimes()
	if len(rts) != 4 {
		t.Fatalf("%d runtimes", len(rts))
	}
	names := []string{"Bare-metal", "Docker", "Singularity", "Shifter"}
	for i, want := range names {
		if rts[i].Name() != want {
			t.Errorf("runtime %d is %q, want %q", i, rts[i].Name(), want)
		}
		if _, err := ByName(want); err != nil {
			t.Errorf("ByName(%q): %v", want, err)
		}
	}
	if _, err := ByName("Podman"); err == nil {
		t.Error("unknown runtime found")
	}
}

func TestImageSizesInPaperBallpark(t *testing.T) {
	// The study's Alya images were roughly 1–2.5 GB uncompressed.
	img := buildOCI(t, topology.AMD64, SelfContained, "")
	if img.Size() < 1*units.GiB || img.Size() > 3*units.GiB {
		t.Fatalf("self-contained image %v outside the plausible range", img.Size())
	}
}
