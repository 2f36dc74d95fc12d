package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/alya"
	"repro/internal/appio"
	"repro/internal/cluster"
	"repro/internal/container"
)

// modelAllow lists the model leaf fields that move no byte of the
// covering set and stay anyway, each with the reason. Every other dead
// leaf TestModelLeavesMoveBytes finds must be deleted: a parameter no
// output reads, whose doc comment names a mechanism, misleads whoever
// explains a figure by the model.
var modelAllow = map[string]string{
	"fabric.Transport.PerPacketCPU": "zero on every cluster fabric; it prices the Docker bridge and NAT paths, which are built outside the tables",
	"fabric.Transport.MTU":          "zero on every cluster fabric; it sizes the Docker bridge and NAT packets, which are built outside the tables",
}

// leafFactors scale one leaf at a time. ×1.01 alone reads a leaf as dead
// when it is live only behind a threshold or a min/max: no message of
// the covering set sits within 1 % of an eager limit, so the wide
// factors push the limits across the ~2 MB halos and the small messages.
var leafFactors = []float64{1.01, 100, 0.01}

// modelTables is one copy of the model's data: the cluster presets and
// the named Alya cases, indexed as cluster.All() and alya.CaseNames().
type modelTables struct {
	clusters []*cluster.Cluster
	cases    []alya.Case
}

func baseTables(t *testing.T) modelTables {
	m := modelTables{clusters: cluster.All()}
	for _, name := range alya.CaseNames() {
		c, err := alya.CaseByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m.cases = append(m.cases, c)
	}
	return m
}

// clone deep-copies unperturbed tables: cluster.All builds fresh
// values, and a Case holds no pointers.
func (m modelTables) clone() modelTables {
	return modelTables{clusters: cluster.All(), cases: slices.Clone(m.cases)}
}

// modelLeaf is one float field instance inside the tables.
type modelLeaf struct {
	field   string // declaring type and field, e.g. "topology.NodeSpec.SharedMemRate"
	cluster int    // index into clusters, or -1
	kase    int    // index into cases, or -1
	path    []int  // reflect field index path from the Cluster or Case
}

// value addresses the leaf inside m.
func (l modelLeaf) value(m modelTables) reflect.Value {
	if l.cluster >= 0 {
		return reflect.ValueOf(m.clusters[l.cluster]).Elem().FieldByIndex(l.path)
	}
	return reflect.ValueOf(&m.cases[l.kase]).Elem().FieldByIndex(l.path)
}

// modelLeaves walks every float leaf of the tables by reflection.
func modelLeaves(m modelTables) []modelLeaf {
	var out []modelLeaf
	var walk func(v reflect.Value, path []int, at modelLeaf)
	walk = func(v reflect.Value, path []int, at modelLeaf) {
		for i := range v.NumField() {
			f, p := v.Field(i), append(path[:len(path):len(path)], i)
			switch f.Kind() {
			case reflect.Struct:
				walk(f, p, at)
			case reflect.Float32, reflect.Float64:
				l := at
				l.field = v.Type().String() + "." + v.Type().Field(i).Name
				l.path = p
				out = append(out, l)
			}
		}
	}
	for i, cl := range m.clusters {
		walk(reflect.ValueOf(cl).Elem(), nil, modelLeaf{cluster: i, kase: -1})
	}
	for i := range m.cases {
		walk(reflect.ValueOf(&m.cases[i]).Elem(), nil, modelLeaf{cluster: -1, kase: i})
	}
	return out
}

// coverProbe is one evaluation of the covering set: it reads the
// tables' cluster and case it names (kase -1: none), and nothing else.
// cells are the cells whose keys stand for the probe; nil exempts it
// from the key check.
type coverProbe struct {
	name          string
	cluster, kase int
	run           func(m modelTables) (any, error)
	cells         func(m modelTables) []CellID
}

// reads reports whether a perturbation of leaf l can reach the probe.
func (p coverProbe) reads(l modelLeaf) bool {
	if l.cluster >= 0 {
		return l.cluster == p.cluster
	}
	return l.kase == p.kase
}

// output is the probe's bytes: the encoded result, or the error.
func (p coverProbe) output(m modelTables) string {
	v, err := p.run(m)
	if err == nil {
		var b []byte
		if b, err = json.Marshal(v); err == nil {
			return string(b)
		}
	}
	return "error: " + err.Error()
}

// keys returns the probe's cell keys and their model checksums (the
// keys' Model fields), each joined.
func (p coverProbe) keys(m modelTables) (key, model string, err error) {
	for _, id := range p.cells(m) {
		k, err := id.Fingerprint()
		if err != nil {
			return "", "", err
		}
		d, err := id.point().digest()
		if err != nil {
			return "", "", err
		}
		key, model = key+k+" ", model+d+" "
	}
	return key, model, nil
}

// coveringSet lists the probes, cheapest first.
//   - Deploys at 1, 2 and 4 nodes per available runtime × technique: the
//     only readers of the registry uplink. Their keys are those of
//     minimal cells at the same deployment points.
//   - appio checkpoints on every path at 1, 2 and 64 nodes: the only
//     reader of the local disk's read bandwidth (stage-out), and at 64
//     nodes the aggregate filesystem share binds on MareNostrum4 and
//     CTE-POWER. iostudy has no cells and no keys, so these probes are
//     exempt from the key check.
//   - Per runtime × technique, three ModeModel cells: a paper-mesh CFD
//     cell at 2 ranks on 2 nodes, whose ~2 MB halos cross every eager
//     threshold at ×100; a single rank whose threads span both sockets,
//     the only reader of the NUMA penalty; and an FSI cell on two full
//     nodes, where competing ranks share the socket bandwidth and small
//     inter-node messages cross the eager thresholds at ×0.01. The CFD
//     and FSI cells reach the fabric leaves both.
//   - One ModeReal QuickFSI cell of 12 steps, the only reader of the
//     physics parameters; at 2 steps the wall moves rigidly and
//     Poisson's ratio and damping read as dead.
func coveringSet(m modelTables) []coverProbe {
	const cfdCase, fsiCase, quickFSI = 0, 2, 4
	var deploys, io, cells []coverProbe
	cellProbe := func(ci, kase int, id func(m modelTables) CellID) coverProbe {
		base := id(m)
		name := fmt.Sprintf("cell %s %s %s %s %v %dn×%dr×%dt", base.Cluster.Name, base.Runtime.Name(), base.Kind,
			base.Case.Name, base.Mode, base.Nodes, base.Ranks, base.Threads)
		return coverProbe{name: name, cluster: ci, kase: kase,
			cells: func(m modelTables) []CellID { return []CellID{id(m)} },
			run: func(m modelTables) (any, error) {
				id := id(m)
				img, err := BuildImageFor(id.Runtime, id.Cluster, id.Kind)
				if err != nil {
					return nil, err
				}
				res, err := RunCell(Cell{Cluster: id.Cluster, Runtime: id.Runtime, Image: img, Case: id.Case,
					Nodes: id.Nodes, Ranks: id.Ranks, Threads: id.Threads, Mode: id.Mode})
				return res.Exec, err
			}}
	}
	modelCell := func(ci, kase int, rt container.Runtime, kind container.BuildKind, nodes, ranks, threads int) coverProbe {
		return cellProbe(ci, kase, func(m modelTables) CellID {
			c := m.cases[kase]
			c.SimSteps, c.ModelCGIters = 1, 2
			return CellID{Cluster: m.clusters[ci], Runtime: rt, Kind: kind, Case: c,
				Nodes: nodes, Ranks: ranks, Threads: threads, Mode: alya.ModeModel}
		})
	}
	deployNodes := []int{1, 2, 4}
	for ci, cl := range m.clusters {
		cores := cl.CoresPerNode()
		for _, rt := range container.Runtimes() {
			if rt.Available(cl) != nil {
				continue
			}
			for _, kind := range []container.BuildKind{container.SystemSpecific, container.SelfContained} {
				if _, bare := rt.(container.BareMetal); bare && kind != container.SystemSpecific {
					continue
				}
				deploys = append(deploys, coverProbe{
					name:    fmt.Sprintf("deploy %s %s %s", cl.Name, rt.Name(), kind),
					cluster: ci, kase: -1,
					run: func(m modelTables) (any, error) {
						cl := m.clusters[ci]
						img, err := BuildImageFor(rt, cl, kind)
						if err != nil {
							return nil, err
						}
						var out []container.DeployReport
						for _, n := range deployNodes {
							d, err := rt.Deploy(cl, img, n)
							if err != nil {
								return nil, err
							}
							out = append(out, d)
						}
						return out, nil
					},
					cells: func(m modelTables) []CellID {
						var out []CellID
						for _, n := range deployNodes {
							out = append(out, CellID{Cluster: m.clusters[ci], Runtime: rt, Kind: kind, Case: m.cases[cfdCase],
								Nodes: n, Ranks: n, Threads: 1, Mode: alya.ModeModel})
						}
						return out
					}})
				cells = append(cells,
					modelCell(ci, cfdCase, rt, kind, 2, 2, 1),
					modelCell(ci, cfdCase, rt, kind, 1, 1, cores),
					modelCell(ci, fsiCase, rt, kind, 2, 2*cores, 1))
			}
		}
		io = append(io, coverProbe{name: "checkpoints " + cl.Name, cluster: ci, kase: -1, run: func(m modelTables) (any, error) {
			cl := m.clusters[ci]
			ck := appio.Checkpoint{Cells: 20_000_000, Fields: 4, BytesPerValue: 8, FilesPerRank: 4}
			var out []appio.Report
			for _, p := range []appio.Path{appio.PathBindMount, appio.PathOverlay, appio.PathVolume} {
				for _, n := range []int{1, 2, 64} {
					r, err := appio.DefaultModel().CheckpointTime(cl, n, n*cores, ck, p)
					if err != nil {
						return nil, err
					}
					out = append(out, r)
				}
			}
			return out, nil
		}})
	}
	realCell := cellProbe(0, quickFSI, func(m modelTables) CellID {
		c := m.cases[quickFSI]
		c.Steps, c.SimSteps = 12, 12
		return CellID{Cluster: m.clusters[0], Runtime: container.BareMetal{}, Case: c,
			Nodes: 1, Ranks: 4, Threads: 1, Mode: alya.ModeReal}
	})
	return append(append(append(deploys, io...), cells...), realCell)
}

// TestModelLeavesMoveBytes holds every float leaf of the model tables —
// the cluster presets with their topology, fabric and storage values,
// and the named Alya cases — to moving a byte of the covering set's
// output when scaled by one of leafFactors, or to a reason in
// modelAllow.
//
// It also holds the cell keys to every byte they stand for: whenever a
// perturbation moves a probe's bytes, it must move the probe's key, or
// a warm store would replay a stale figure. A cluster leaf must move the
// key's model checksum on its own, not only the cluster table the key
// also names: the table reaches a cell's bytes only through the
// evaluations the checksum hashes (image, deploy, execution profile,
// OpenMP model), and a code edit to one of those moves them with the
// table unchanged. A miss names the leaf and the probe. The converse,
// a key that moves while no byte does, is over-invalidation: it costs a
// re-simulation, not a wrong figure, and is only counted.
func TestModelLeavesMoveBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("re-simulates the covering set a few hundred times; the race detector makes that minutes")
	}
	base := baseTables(t)
	probes := coveringSet(base)
	baseOut := make([]string, len(probes))
	baseKey := make([]string, len(probes))
	baseModel := make([]string, len(probes))
	for i, p := range probes {
		if baseOut[i] = p.output(base); strings.HasPrefix(baseOut[i], "error: ") {
			t.Fatalf("covering probe %s fails on the unperturbed tables: %s", p.name, baseOut[i])
		}
		if p.cells == nil {
			continue
		}
		var err error
		if baseKey[i], baseModel[i], err = p.keys(base); err != nil {
			t.Fatal(err)
		}
		// The memo is warm now: its keys must equal fresh evaluations.
		for _, id := range p.cells(base) {
			model, err := id.point().sliceDigest(alya.StepProgram)
			if err != nil {
				t.Fatal(err)
			}
			b, err := id.canon(model)
			if err != nil {
				t.Fatal(err)
			}
			if warm := fp(t, id); warm != hexSum(b) {
				t.Errorf("probe %s: the memoized key %s differs from a fresh one", p.name, warm)
			}
		}
	}

	var fields []string
	byField := map[string][]modelLeaf{}
	for _, l := range modelLeaves(base) {
		if _, seen := byField[l.field]; !seen {
			fields = append(fields, l.field)
		}
		byField[l.field] = append(byField[l.field], l)
	}

	// check probes one field at every instance and factor. Until some
	// probe's bytes move, every probe is run; after that, only those
	// whose key the perturbation leaves in place, since only they can
	// miss. A perturbation the tables' own checks reject (a NUMA penalty
	// above 1) is outside the model and skipped.
	type verdict struct {
		live       bool
		misses     []string
		runs, over int
	}
	check := func(field string) (v verdict) {
		for _, f := range leafFactors {
			for _, l := range byField[field] {
				m := base.clone()
				leaf := l.value(m)
				if leaf.Float() == 0 {
					continue
				}
				leaf.SetFloat(leaf.Float() * f)
				where := ""
				if l.cluster >= 0 {
					if m.clusters[l.cluster].Validate() != nil {
						continue
					}
					where = m.clusters[l.cluster].Name
				} else {
					if m.cases[l.kase].Validate() != nil {
						continue
					}
					where = m.cases[l.kase].Name
				}
				for i, p := range probes {
					if !p.reads(l) {
						continue
					}
					// rekeyed: the perturbation moved what the probe's key
					// must see — the model checksum for a cluster leaf,
					// the key for a case leaf.
					exempt, rekeyed := p.cells == nil, false
					if !exempt {
						key, model, err := p.keys(m)
						if err != nil {
							v.misses = append(v.misses, fmt.Sprintf("probe %s: %v", p.name, err))
							continue
						}
						rekeyed = key != baseKey[i] && (l.cluster < 0 || model != baseModel[i])
					}
					if (exempt || rekeyed) && v.live {
						continue
					}
					v.runs++
					switch {
					case p.output(m) == baseOut[i]:
						if rekeyed {
							v.over++
						}
					case !exempt && !rekeyed:
						what := "key's model checksum"
						if l.cluster < 0 {
							what = "key"
						}
						v.misses = append(v.misses, fmt.Sprintf("scaled ×%v on %s, it moves the bytes of probe %s but not its %s",
							f, where, p.name, what))
						fallthrough
					default:
						v.live = true
					}
				}
			}
		}
		return v
	}

	verdicts := make([]verdict, len(fields))
	var wg sync.WaitGroup
	next := make(chan int)
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				verdicts[i] = check(fields[i])
			}
		}()
	}
	for i := range fields {
		next <- i
	}
	close(next)
	wg.Wait()

	var dead []string
	runs, over := 0, 0
	for i, field := range fields {
		v := verdicts[i]
		runs, over = runs+v.runs, over+v.over
		if len(v.misses) > 0 {
			t.Errorf("%s: %s (%d misses in all)", field, v.misses[0], len(v.misses))
		}
		_, allowed := modelAllow[field]
		switch {
		case v.live && allowed:
			t.Errorf("modelAllow[%q] is stale: the leaf moves output", field)
		case !v.live && !allowed:
			dead = append(dead, field)
		}
	}
	t.Logf("over-invalidation: %d of %d probe runs re-keyed a probe whose bytes did not move", over, runs)
	for field := range modelAllow { //lint:allow maporder -- reports each stale key; order is irrelevant
		if _, ok := byField[field]; !ok {
			t.Errorf("modelAllow[%q] is stale: no model leaf has that name", field)
		}
	}
	sort.Strings(dead)
	for _, field := range dead {
		t.Errorf("model leaf %s moves no byte of the covering set at any factor of %v: delete it, or give the reason in modelAllow",
			field, leafFactors)
	}
}
