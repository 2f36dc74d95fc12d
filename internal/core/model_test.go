package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/alya"
	"repro/internal/cluster"
	"repro/internal/container"
	"repro/internal/omp"
	"repro/internal/sched"
	"repro/internal/units"
)

// bareCell is a bare-metal ModeModel cell of the given kind on cl.
func bareCell(cl *cluster.Cluster, kind alya.Kind, nodes int) CellID {
	c := alya.QuickCFD(1)
	if kind == alya.FSI {
		c = alya.QuickFSI(1)
	}
	return CellID{Cluster: cl, Runtime: container.BareMetal{}, Case: c,
		Nodes: nodes, Ranks: 2 * nodes, Threads: 1, Mode: alya.ModeModel}
}

// slice evaluates the cell's model as its key does, without the memo.
func slice(id CellID) cellModel { return id.point().slice(alya.StepProgram) }

// TestModelChecksumStable: a cell's model checksum (the key's Model
// field) is a sha256 digest, and the memoized one equals a fresh
// evaluation.
func TestModelChecksumStable(t *testing.T) {
	id := baseID()
	a, err := id.point().digest()
	if err != nil {
		t.Fatal(err)
	}
	b, err := id.point().sliceDigest(alya.StepProgram)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("memoized model checksum %s diverges from a fresh one %s", a, b)
	}
	if len(a) != 64 || strings.Trim(a, "0123456789abcdef") != "" {
		t.Fatalf("model checksum %q is not a sha256 hex digest", a)
	}
}

// TestModelChecksumFlipsOnConstantChange is the invalidation contract,
// per cell: mutating a model constant of one cluster must move the keys
// of the cells that run on it, so their records read as misses, and
// must leave every other cluster's keys alone.
func TestModelChecksumFlipsOnConstantChange(t *testing.T) {
	keys := func(cs []*cluster.Cluster) []string {
		var out []string
		for _, cl := range cs {
			out = append(out, fp(t, bareCell(cl, alya.CFD, 1)))
		}
		return out
	}
	base := keys(cluster.All())
	mutations := []struct {
		name    string
		cluster int
		mutate  func(cl *cluster.Cluster)
	}{
		{"fabric latency", 0, func(cl *cluster.Cluster) { cl.Interconnect.Native.Latency += units.Microsecond }},
		{"fabric bandwidth", 1, func(cl *cluster.Cluster) { cl.Interconnect.TCPFallback.Bandwidth *= 2 }},
		{"cluster size", 2, func(cl *cluster.Cluster) { cl.TotalNodes++ }},
		{"registry uplink", 3, func(cl *cluster.Cluster) { cl.RegistryRTT += units.Millisecond }},
		{"host ABI", 0, func(cl *cluster.Cluster) { cl.HostABI += "-patched" }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			// Constructors return fresh values, so mutating one set
			// cannot leak into other subtests.
			mutated := cluster.All()
			m.mutate(mutated[m.cluster])
			for i, k := range keys(mutated) {
				if moved := k != base[i]; moved != (i == m.cluster) {
					t.Errorf("mutating %s of %s: the key of a cell on %s moved = %v",
						m.name, mutated[m.cluster].Name, mutated[i].Name, moved)
				}
			}
		})
	}
}

// TestModelChecksumFlipsOnStepProgramEdit: a ModeModel cell's key
// hashes the step program of its case kind, so an edit that changes no
// constant but the order of a step — here the solid step charging
// before its halo exchange instead of after — re-keys the ModeModel FSI
// cells and no CFD or ModeReal cell.
func TestModelChecksumFlipsOnStepProgramEdit(t *testing.T) {
	edited := func(k alya.Kind) string {
		progs := alya.StepProgram(k)
		if k != alya.FSI {
			return progs
		}
		i := strings.LastIndex(progs, "[") + 1
		ops := strings.SplitN(progs[i:], "} ", 3)
		if len(ops) != 3 || !strings.HasPrefix(ops[0], "{exchange ") || !strings.HasPrefix(ops[1], "{charge ") {
			t.Fatalf("the solid step does not open with its exchange and charge: %s", progs)
		}
		return progs[:i] + ops[1] + "} " + ops[0] + "} " + ops[2]
	}
	for _, kind := range []alya.Kind{alya.CFD, alya.FSI} {
		for _, mode := range []alya.Mode{alya.ModeModel, alya.ModeReal} {
			id := bareCell(cluster.MareNostrum4(), kind, 2)
			id.Mode = mode
			want, err := id.point().digest()
			if err != nil {
				t.Fatal(err)
			}
			got, err := id.point().sliceDigest(edited)
			if err != nil {
				t.Fatal(err)
			}
			if moved := got != want; moved != (kind == alya.FSI && mode == alya.ModeModel) {
				t.Errorf("%v %v cell: swapping the solid step's exchange and charge moved its key = %v", mode, kind, moved)
			}
		}
	}
}

// TestModelSignatureCoversLaunchLatency: the job-launch latency offsets
// every rank's start, so it moves every figure. A cell's model slice
// must carry it at the cell's own node count, for every allocation a
// cluster can grant, or editing its constants would replay stale
// results from warm stores.
func TestModelSignatureCoversLaunchLatency(t *testing.T) {
	for _, cl := range cluster.All() {
		for n := 1; n <= cl.TotalNodes; n++ {
			want := (&sched.Job{Nodes: n}).LaunchLatency()
			if got := slice(bareCell(cl, alya.CFD, n)).Launch; got != want {
				t.Fatalf("%s at %d nodes: the model slice carries launch latency %v, the job pays %v", cl.Name, n, got, want)
			}
		}
	}
}

// TestModelSignatureCarriesOMPRegionConstants: every compute charge pays
// the OpenMP model's serial fraction and load imbalance, so a cell's
// model slice must carry both for its node, or editing either would
// move every figure under unchanged keys.
func TestModelSignatureCarriesOMPRegionConstants(t *testing.T) {
	for _, cl := range cluster.All() {
		want := omp.DefaultModel(cl.Node)
		if want.SerialFraction == 0 || want.Imbalance == 0 {
			t.Fatalf("%s: the OpenMP model has no serial fraction or imbalance: %+v", cl.Name, want)
		}
		b, err := json.Marshal(slice(bareCell(cl, alya.CFD, 1)))
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			OMP struct{ SerialFraction, Imbalance float64 }
		}
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if g := got.OMP; g.SerialFraction != want.SerialFraction || g.Imbalance != want.Imbalance {
			t.Errorf("%s: the model slice carries serial fraction %v and imbalance %v, the model charges %v and %v",
				cl.Name, g.SerialFraction, g.Imbalance, want.SerialFraction, want.Imbalance)
		}
	}
}

// TestModelValuesArePure: the slice memo is keyed by the cluster and
// runtime values themselves, and a case reaches a key only by value,
// which is sound only while they hold nothing shared. A pointer, slice,
// map, func, chan or interface field anywhere inside them would let two
// equal memo keys see different models, and the memo would return a
// stale digest.
func TestModelValuesArePure(t *testing.T) {
	values := []any{cluster.Cluster{}, alya.Case{}}
	for _, rt := range container.Runtimes() {
		values = append(values, rt)
	}
	for _, v := range values {
		var walk func(ty reflect.Type, path string) string
		walk = func(ty reflect.Type, path string) string {
			switch ty.Kind() {
			case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Func, reflect.Chan, reflect.Interface, reflect.UnsafePointer:
				return path + " is a " + ty.Kind().String()
			case reflect.Array:
				return walk(ty.Elem(), path+"[]")
			case reflect.Struct:
				for i := range ty.NumField() {
					if bad := walk(ty.Field(i).Type, path+"."+ty.Field(i).Name); bad != "" {
						return bad
					}
				}
			}
			return ""
		}
		ty := reflect.TypeOf(v)
		if bad := walk(ty, ty.String()); bad != "" {
			t.Errorf("%s: the memoized model key must hold values only", bad)
		}
	}
}
