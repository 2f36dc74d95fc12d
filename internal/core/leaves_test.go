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
type coverProbe struct {
	cluster, kase int
	run           func(m modelTables) (any, error)
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

// coveringSet lists the probes, cheapest first.
//   - Deploys at 1, 2 and 4 nodes per available runtime × technique: the
//     only readers of the registry uplink.
//   - appio checkpoints on every path at 1, 2 and 64 nodes: the only
//     reader of the local disk's read bandwidth (stage-out), and at 64
//     nodes the aggregate filesystem share binds on MareNostrum4 and
//     CTE-POWER.
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
	modelCell := func(ci, kase int, rt container.Runtime, kind container.BuildKind, nodes, ranks, threads int) coverProbe {
		return coverProbe{cluster: ci, kase: kase, run: func(m modelTables) (any, error) {
			cl, c := m.clusters[ci], m.cases[kase]
			c.SimSteps, c.ModelCGIters = 1, 2
			img, err := BuildImageFor(rt, cl, kind)
			if err != nil {
				return nil, err
			}
			res, err := RunCell(Cell{Cluster: cl, Runtime: rt, Image: img, Case: c,
				Nodes: nodes, Ranks: ranks, Threads: threads, Mode: alya.ModeModel})
			return res.Exec, err
		}}
	}
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
				deploys = append(deploys, coverProbe{cluster: ci, kase: -1, run: func(m modelTables) (any, error) {
					cl := m.clusters[ci]
					img, err := BuildImageFor(rt, cl, kind)
					if err != nil {
						return nil, err
					}
					var out []container.DeployReport
					for _, n := range []int{1, 2, 4} {
						d, err := rt.Deploy(cl, img, n)
						if err != nil {
							return nil, err
						}
						out = append(out, d)
					}
					return out, nil
				}})
				cells = append(cells,
					modelCell(ci, cfdCase, rt, kind, 2, 2, 1),
					modelCell(ci, cfdCase, rt, kind, 1, 1, cores),
					modelCell(ci, fsiCase, rt, kind, 2, 2*cores, 1))
			}
		}
		io = append(io, coverProbe{cluster: ci, kase: -1, run: func(m modelTables) (any, error) {
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
	realCell := coverProbe{cluster: 0, kase: quickFSI, run: func(m modelTables) (any, error) {
		c := m.cases[quickFSI]
		c.Steps, c.SimSteps = 12, 12
		res, err := RunCell(Cell{Cluster: m.clusters[0], Runtime: container.BareMetal{}, Case: c,
			Nodes: 1, Ranks: 4, Threads: 1, Mode: alya.ModeReal})
		return res.Exec, err
	}}
	return append(append(append(deploys, io...), cells...), realCell)
}

// TestModelLeavesMoveBytes holds every float leaf of the model tables —
// the cluster presets with their topology, fabric and storage values,
// and the named Alya cases — to moving a byte of the covering set's
// output when scaled by one of leafFactors, or to a reason in
// modelAllow. A cluster leaf that moves output must move the model
// checksum too, or warm stores would replay stale figures.
func TestModelLeavesMoveBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("re-simulates the covering set a few hundred times; the race detector makes that minutes")
	}
	base := baseTables(t)
	probes := coveringSet(base)
	baseOut := make([]string, len(probes))
	for i, p := range probes {
		if baseOut[i] = p.output(base); strings.HasPrefix(baseOut[i], "error: ") {
			t.Fatalf("covering probe %d fails on the unperturbed tables: %s", i, baseOut[i])
		}
	}
	baseSig, err := modelSignature(base.clusters, alya.StepPrograms())
	if err != nil {
		t.Fatal(err)
	}

	var fields []string
	byField := map[string][]modelLeaf{}
	for _, l := range modelLeaves(base) {
		if _, seen := byField[l.field]; !seen {
			fields = append(fields, l.field)
		}
		byField[l.field] = append(byField[l.field], l)
	}

	// live probes one field: the first instance and factor that moves a
	// probe's bytes decides it. A perturbation the tables' own checks
	// reject (a NUMA penalty above 1) is outside the model and skipped.
	live := func(field string) (bool, error) {
		for _, f := range leafFactors {
			for _, l := range byField[field] {
				m := base.clone()
				v := l.value(m)
				if v.Float() == 0 {
					continue
				}
				v.SetFloat(v.Float() * f)
				if l.cluster >= 0 && m.clusters[l.cluster].Validate() != nil ||
					l.kase >= 0 && m.cases[l.kase].Validate() != nil {
					continue
				}
				for i, p := range probes {
					if !p.reads(l) || p.output(m) == baseOut[i] {
						continue
					}
					if l.cluster >= 0 {
						sig, err := modelSignature(m.clusters, alya.StepPrograms())
						if err != nil {
							return true, err
						}
						if checksumOf(sig) == checksumOf(baseSig) {
							return true, fmt.Errorf("scaled ×%v on %s, it moves output but not the model checksum",
								f, m.clusters[l.cluster].Name)
						}
					}
					return true, nil
				}
			}
		}
		return false, nil
	}

	type verdict struct {
		live bool
		err  error
	}
	verdicts := make([]verdict, len(fields))
	var wg sync.WaitGroup
	next := make(chan int)
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				verdicts[i].live, verdicts[i].err = live(fields[i])
			}
		}()
	}
	for i := range fields {
		next <- i
	}
	close(next)
	wg.Wait()

	var dead []string
	for i, field := range fields {
		v := verdicts[i]
		_, allowed := modelAllow[field]
		switch {
		case v.err != nil:
			t.Errorf("%s: %v", field, v.err)
		case v.live && allowed:
			t.Errorf("modelAllow[%q] is stale: the leaf moves output", field)
		case !v.live && !allowed:
			dead = append(dead, field)
		}
	}
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
