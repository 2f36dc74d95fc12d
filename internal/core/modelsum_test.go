package core

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/alya"
	"repro/internal/cluster"
	"repro/internal/omp"
	"repro/internal/sched"
	"repro/internal/units"
)

func TestModelChecksumStable(t *testing.T) {
	a, b := ModelChecksum(), ModelChecksum()
	if a != b {
		t.Fatalf("checksum unstable: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("checksum %q is not a sha256 hex digest", a)
	}
	sig, err := modelSignature(cluster.All(), alya.StepPrograms())
	if err != nil {
		t.Fatal(err)
	}
	if got := checksumOf(sig); got != a {
		t.Fatalf("memoized checksum %s diverges from a fresh signature %s", a, got)
	}
}

// TestModelChecksumFlipsOnConstantChange is the self-invalidation
// contract: mutating any simulator model constant must change the
// checksum, so result records stamped with it read as misses.
func TestModelChecksumFlipsOnConstantChange(t *testing.T) {
	base, err := modelSignature(cluster.All(), alya.StepPrograms())
	if err != nil {
		t.Fatal(err)
	}
	baseSum := checksumOf(base)

	mutations := []struct {
		name   string
		mutate func(cs []*cluster.Cluster)
	}{
		{"fabric latency", func(cs []*cluster.Cluster) {
			cs[0].Interconnect.Native.Latency += units.Microsecond
		}},
		{"fabric bandwidth", func(cs []*cluster.Cluster) {
			cs[1].Interconnect.TCPFallback.Bandwidth *= 2
		}},
		{"cluster size", func(cs []*cluster.Cluster) {
			cs[2].TotalNodes++
		}},
		{"registry uplink", func(cs []*cluster.Cluster) {
			cs[3].RegistryRTT += units.Millisecond
		}},
		{"host ABI", func(cs []*cluster.Cluster) {
			cs[0].HostABI += "-patched"
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			// Constructors return fresh values, so mutating one set
			// cannot leak into other subtests or the memoized checksum.
			mutated := cluster.All()
			m.mutate(mutated)
			sig, err := modelSignature(mutated, alya.StepPrograms())
			if err != nil {
				t.Fatal(err)
			}
			if checksumOf(sig) == baseSum {
				t.Fatalf("checksum did not change after mutating %s", m.name)
			}
		})
	}
}

// TestModelChecksumFlipsOnStepProgramEdit: the checksum hashes
// ModeModel's step programs, so an edit that changes no constant but
// the order of a step — here the solid step, the last program, charging
// before its halo exchange instead of after — changes it too.
func TestModelChecksumFlipsOnStepProgramEdit(t *testing.T) {
	progs := alya.StepPrograms()
	base, err := modelSignature(cluster.All(), progs)
	if err != nil {
		t.Fatal(err)
	}
	if got := checksumOf(base); got != ModelChecksum() {
		t.Fatalf("ModelChecksum %s does not hash the step programs (%s)", ModelChecksum(), got)
	}
	i := strings.LastIndex(progs, "[") + 1
	ops := strings.SplitN(progs[i:], "} ", 3)
	if len(ops) != 3 || !strings.HasPrefix(ops[0], "{exchange ") || !strings.HasPrefix(ops[1], "{charge ") {
		t.Fatalf("the solid step does not open with its exchange and charge: %s", progs)
	}
	swapped, err := modelSignature(cluster.All(), progs[:i]+ops[1]+"} "+ops[0]+"} "+ops[2])
	if err != nil {
		t.Fatal(err)
	}
	if checksumOf(swapped) == checksumOf(base) {
		t.Fatal("checksum did not change after swapping the solid step's exchange and charge")
	}
}

// TestModelSignatureCoversLaunchLatency: the job-launch latency offsets
// every rank's start, so it moves every figure; the signature must
// carry it for every allocation size a cluster can grant, or editing
// its constants would replay stale results from warm stores.
func TestModelSignatureCoversLaunchLatency(t *testing.T) {
	clusters := cluster.All()
	sig, err := modelSignature(clusters, alya.StepPrograms())
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Launch map[string]units.Seconds
	}
	if err := json.Unmarshal(sig, &got); err != nil {
		t.Fatal(err)
	}
	carried := map[units.Seconds]bool{}
	for _, l := range got.Launch { //lint:allow maporder -- builds a set
		carried[l] = true
	}
	for _, cl := range clusters {
		for n := 1; n <= cl.TotalNodes; n++ {
			if l := (&sched.Job{Nodes: n}).LaunchLatency(); !carried[l] {
				t.Fatalf("%s: launch latency %v at %d nodes is not in the model signature", cl.Name, l, n)
			}
		}
	}
}

// TestModelSignatureCarriesOMPRegionConstants: every compute charge pays
// the OpenMP model's serial fraction and load imbalance, so the
// signature must carry both for every node, or editing either would
// move every figure under an unchanged stamp.
func TestModelSignatureCarriesOMPRegionConstants(t *testing.T) {
	clusters := cluster.All()
	sig, err := modelSignature(clusters, alya.StepPrograms())
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		OMP []struct{ SerialFraction, Imbalance float64 }
	}
	if err := json.Unmarshal(sig, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.OMP) != len(clusters) {
		t.Fatalf("signature carries %d OpenMP models for %d clusters", len(got.OMP), len(clusters))
	}
	for i, cl := range clusters {
		want := omp.DefaultModel(cl.Node)
		if want.SerialFraction == 0 || want.Imbalance == 0 {
			t.Fatalf("%s: the OpenMP model has no serial fraction or imbalance: %+v", cl.Name, want)
		}
		if g := got.OMP[i]; g.SerialFraction != want.SerialFraction || g.Imbalance != want.Imbalance {
			t.Errorf("%s: signature carries serial fraction %v and imbalance %v, the model charges %v and %v",
				cl.Name, g.SerialFraction, g.Imbalance, want.SerialFraction, want.Imbalance)
		}
	}
}
