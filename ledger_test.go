package containerhpc

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// TestPerfLedger keeps the committed perf series (bench/README.md) from
// rotting: the newest bench/BENCH_<pr>.json must be a full, correct
// result set of every BENCHMARK.json workload, and the gate must accept
// it against itself.
func TestPerfLedger(t *testing.T) {
	entries, err := filepath.Glob("bench/BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	newest, newestPR := "", -1
	name := regexp.MustCompile(`BENCH_(\d+)\.json$`)
	for _, path := range entries {
		m := name.FindStringSubmatch(path)
		if m == nil {
			t.Errorf("%s: ledger entries are named BENCH_<pr>.json", path)
			continue
		}
		if pr, _ := strconv.Atoi(m[1]); pr > newestPR {
			newest, newestPR = path, pr
		}
	}
	if newest == "" {
		t.Fatal("bench/ holds no BENCH_<pr>.json ledger entry")
	}

	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	var entry struct {
		Provenance struct{ Smoke bool } `json:"provenance"`
		Runs       []struct {
			Workload string
			Traced   bool
			Correct  bool
			Metrics  map[string]json.RawMessage
		} `json:"runs"`
	}
	read := func(path string, into any) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, into); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	read("BENCHMARK.json", &spec)
	read(newest, &entry)
	if entry.Provenance.Smoke {
		t.Errorf("%s was written with -smoke", newest)
	}
	type mode struct {
		workload string
		traced   bool
	}
	seen := map[mode]int{}
	for _, r := range entry.Runs {
		seen[mode{r.Workload, r.Traced}]++
		if !r.Correct {
			t.Errorf("%s: %s (traced=%v) is not correct", newest, r.Workload, r.Traced)
		}
		for _, m := range spec.EndToEnd {
			if _, ok := r.Metrics[m.Name]; !ok && !r.Traced {
				t.Errorf("%s: %s lacks the end-to-end metric %s", newest, r.Workload, m.Name)
			}
		}
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			if n := seen[mode{w.Name, traced}]; n != 1 {
				t.Errorf("%s: %d runs of %s (traced=%v), want 1", newest, n, w.Name, traced)
			}
		}
	}
	if len(entry.Runs) != 2*len(spec.Workloads) {
		t.Errorf("%s: %d runs, want %d", newest, len(entry.Runs), 2*len(spec.Workloads))
	}

	if testing.Short() {
		return
	}
	if out, err := exec.Command("go", "run", "./cmd/benchjson", "compare", newest, newest).CombinedOutput(); err != nil {
		t.Errorf("benchjson compare %s against itself: %v\n%s", newest, err, out)
	}
}
