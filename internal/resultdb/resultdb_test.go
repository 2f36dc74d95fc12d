package resultdb

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/alya"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/units"
	"repro/internal/vtime"
)

// sample builds a distinctive SavedResult without running a
// simulation; i differentiates records.
func sample(i int) core.SavedResult {
	return core.SavedResult{
		Deploy: container.DeployReport{
			Runtime: "Singularity", Image: "bsc/alya:v2.0", Nodes: i,
			WireSize: units.ByteSize(700+i) * units.MiB, PullTime: units.Seconds(i) * 1.25,
		},
		Exec: alya.Result{
			Case: "quick-cfd", Runtime: "Singularity", FabricPath: "omni-path",
			Nodes: i, Ranks: 48 * i, Threads: 1,
			TimePerStep: 0.375 * units.Seconds(i+1), Elapsed: 16.875 * units.Seconds(i+1),
			MPI: mpi.Stats{TotalMessages: 100 * i, RankEnd: []units.Seconds{1.5, 2.25}},
		},
	}
}

func key(i int) string { return fmt.Sprintf("%064x", i) }

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, ok := s.Get(key(1)); ok {
		t.Fatal("empty store reported a hit")
	}
	want := sample(1)
	if err := s.Put(key(1), want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key(1))
	if !ok {
		t.Fatal("committed record missed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the result:\nput %+v\ngot %+v", want, got)
	}

	// Floats must restore bit-identical, not approximately.
	if got.Exec.TimePerStep != want.Exec.TimePerStep || got.Deploy.PullTime != want.Deploy.PullTime {
		t.Fatal("float fields not bit-identical after round trip")
	}
}

func TestCorruptRecordIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(key(2), sample(2)); err != nil {
		t.Fatal(err)
	}
	path := s.recordPath(key(2))

	// Truncated mid-record (crash during a non-atomic copy of the dir).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key(2)); ok {
		t.Fatal("truncated record returned a hit")
	}

	// Outright garbage.
	if err := os.WriteFile(path, []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key(2)); ok {
		t.Fatal("garbage record returned a hit")
	}

	// Recomputation overwrites the damage.
	if err := s.Put(key(2), sample(2)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key(2)); !ok {
		t.Fatal("recommit after corruption missed")
	}
}

func TestSchemaStampInvalidates(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(key(3), sample(3)); err != nil {
		t.Fatal(err)
	}

	// Rewrite the record as a future (or past) simulator would have:
	// same key, different schema stamp.
	path := s.recordPath(key(3))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	rec.Schema = SchemaVersion() + "-stale"
	stale, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key(3)); ok {
		t.Fatal("record with a foreign schema stamp returned a hit")
	}
}

func TestKeyMismatchIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(key(4), sample(4)); err != nil {
		t.Fatal(err)
	}
	// A record copied to the wrong address (cross-populated cache dirs)
	// must not masquerade as another cell.
	src := s.recordPath(key(4))
	dst := s.recordPath(key(5))
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key(5)); ok {
		t.Fatal("record stored under a foreign key returned a hit")
	}
}

func TestManifestResume(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(key(10+i), sample(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A stray line and a torn tail (crash mid-append) join the journal:
	// neither is a key, so neither may replay as one.
	mf, err := os.OpenFile(filepath.Join(dir, manifestName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mf.WriteString("../evil\nabc123"); err != nil {
		t.Fatal(err)
	}
	mf.Close()

	// A fresh Open replays the journal.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Len(); got != 5 {
		t.Fatalf("resumed store knows %d keys, want 5", got)
	}
	for _, k := range s2.Keys() {
		if !ValidKey(k) {
			t.Fatalf("replayed a non-key manifest line: %q", k)
		}
	}
	// A key committed after the torn tail gets a line of its own: the
	// next replay still finds it.
	if err := s2.Put(key(99), sample(9)); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if keys := s3.Keys(); len(keys) != 6 || keys[5] != key(99) {
		t.Fatalf("replay after a torn tail lists %d keys (%v), want the 6 committed", len(keys), keys)
	}
	s3.Close()
	for i := 0; i < 5; i++ {
		got, ok := s2.Get(key(10 + i))
		if !ok {
			t.Fatalf("resumed store missed key %d", i)
		}
		if !reflect.DeepEqual(got, sample(i)) {
			t.Fatalf("resumed record %d differs", i)
		}
	}

	// A journaled record whose file vanished is a miss, not a failure.
	if err := os.Remove(s2.recordPath(key(10))); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(key(10)); ok {
		t.Fatal("deleted record returned a hit")
	}
}

// TestRecordWithoutJournalLine simulates a crash between the rename
// and the journal append: the record is on disk, the manifest never
// heard of it. Get must still find it (the files are the source of
// truth) and reconcile the index.
func TestRecordWithoutJournalLine(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(7), sample(7)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Len(); got != 0 {
		t.Fatalf("journal gone but store knows %d keys", got)
	}
	if _, ok := s2.Get(key(7)); !ok {
		t.Fatal("on-disk record not found without its journal line")
	}
	if got := s2.Len(); got != 1 {
		t.Fatalf("reconciled index has %d keys, want 1", got)
	}
}

// TestConcurrentWriters exercises the sharded-sweep contract: several
// stores (standing in for processes) commit into one directory
// concurrently, with overlapping keys, and every record stays intact.
func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	const writers, keys = 4, 32

	var wg sync.WaitGroup
	errs := make([]error, writers)
	for wtr := 0; wtr < writers; wtr++ {
		wg.Add(1)
		go func(wtr int) {
			defer wg.Done()
			s, err := Open(dir)
			if err != nil {
				errs[wtr] = err
				return
			}
			defer s.Close()
			// Each writer commits every key: maximal overlap. Content
			// is a pure function of the key, as in a real sweep.
			for i := 0; i < keys; i++ {
				if err := s.Put(key(i), sample(i)); err != nil {
					errs[wtr] = err
					return
				}
			}
		}(wtr)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Len(); got != keys {
		t.Fatalf("store knows %d keys after concurrent writes, want %d", got, keys)
	}
	for i := 0; i < keys; i++ {
		got, ok := s.Get(key(i))
		if !ok {
			t.Fatalf("key %d missed after concurrent writes", i)
		}
		if !reflect.DeepEqual(got, sample(i)) {
			t.Fatalf("key %d corrupted by concurrent writes", i)
		}
	}
}

func TestShardParse(t *testing.T) {
	good := map[string]Shard{
		"1/1": {1, 1},
		"1/2": {1, 2},
		"2/2": {2, 2},
		"7/9": {7, 9},
	}
	for in, want := range good {
		got, err := ParseShard(in)
		if err != nil || got != want {
			t.Errorf("ParseShard(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "1", "1/", "/2", "0/2", "3/2", "a/b", "1/2/3", "-1/2", "2/1", "1/0", "1/-2", "0/0"} {
		if _, err := ParseShard(in); err == nil {
			t.Errorf("ParseShard(%q) accepted", in)
		}
	}
	// The zero value means "no sharding" and must stay valid; any other
	// inconsistent combination must not slip through Validate either.
	if err := (Shard{}).Validate(); err != nil {
		t.Errorf("zero shard rejected: %v", err)
	}
	for _, sh := range []Shard{{2, 1}, {1, 0}, {0, 1}, {1, -2}, {-1, -1}} {
		if err := sh.Validate(); err == nil {
			t.Errorf("Shard%v validated", sh)
		}
	}
}

// TestShardPartition is the sharding invariant: every key belongs to
// exactly one of the N shards, so cooperating processes compute
// disjoint, exhaustive slices.
func TestShardPartition(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		counts := make([]int, n)
		for i := 0; i < 500; i++ {
			k := key(i * 7919)
			owners := 0
			for idx := 1; idx <= n; idx++ {
				if (Shard{Index: idx, Count: n}).Owns(k) {
					owners++
					counts[idx-1]++
				}
			}
			if owners != 1 {
				t.Fatalf("key %q owned by %d of %d shards", k, owners, n)
			}
		}
		// Distribution sanity: no shard starves on a large key set.
		for idx, c := range counts {
			if c == 0 {
				t.Errorf("shard %d/%d owns no keys out of 500", idx+1, n)
			}
		}
	}
	// The zero shard owns everything.
	if !(Shard{}).Owns(key(1)) {
		t.Error("zero shard does not own keys")
	}
}

// TestPutErrorRoundTrip covers negative caching: a failure record
// commits through the same path, replays through Lookup, stays
// invisible to the success-only Get, and enters the manifest journal.
func TestPutErrorRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.PutError(key(7), "docker needs admin rights"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key(7)); ok {
		t.Fatal("failure record answered a success-only Get")
	}
	ent, ok, _ := s.Lookup(key(7))
	if !ok {
		t.Fatal("failure record missed on Lookup")
	}
	if ent.Err != "docker needs admin rights" {
		t.Fatalf("replayed message %q", ent.Err)
	}

	// A later process sees it through the journal like any record.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Len(); got != 1 {
		t.Fatalf("journal replay found %d keys, want 1", got)
	}
	if ent, ok, _ := s2.Lookup(key(7)); !ok || ent.Err == "" {
		t.Fatal("failure record lost across reopen")
	}

	// Empty messages are indistinguishable from successes: rejected.
	if err := s.PutError(key(8), ""); err == nil {
		t.Fatal("empty failure message accepted")
	}
}

// TestSchemaVersionTracksModel asserts the stamp embeds the model
// checksum, so resimulating after a model-constant change cannot
// replay records from the old model.
func TestSchemaVersionTracksModel(t *testing.T) {
	v := SchemaVersion()
	want := fmt.Sprintf("%d-%s", schemaGeneration, core.ModelChecksum()[:16])
	if v != want {
		t.Fatalf("SchemaVersion() = %q, want %q", v, want)
	}
	if SchemaVersion() != v {
		t.Fatal("SchemaVersion unstable across calls")
	}
}

// checkCoversEveryField fails when a field-wise helper (T.Sub, T.Add)
// forgets a counter: every field must be an int64 and come back as
// want(a, b) of the two inputs, so a field added to the struct but not
// to the helper cannot silently report totals as deltas or drop out of
// a sum.
func checkCoversEveryField[T any](t *testing.T, name string, op func(a, b T) T, want func(a, b int64) int64) {
	t.Helper()
	var a, b T
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("%T.%s is not an int64 counter; teach this test its %s semantics", a, av.Type().Field(i).Name, name)
		}
		av.Field(i).SetInt(int64(10 * (i + 1)))
		bv.Field(i).SetInt(int64(i + 1))
	}
	d := reflect.ValueOf(op(a, b))
	for i := 0; i < d.NumField(); i++ {
		if got, want := d.Field(i).Int(), want(int64(10*(i+1)), int64(i+1)); got != want {
			t.Errorf("%T.%s drops field %s: got %d, want %d", a, name, d.Type().Field(i).Name, got, want)
		}
	}
}

// TestSubCoversEveryCounter guards the two field-wise helpers the -v
// lines are built from: the store's snapshot delta and the kernel
// counters' per-cell sum.
func TestSubCoversEveryCounter(t *testing.T) {
	checkCoversEveryField(t, "Sub", StoreStats.Sub, func(a, b int64) int64 { return a - b })
	checkCoversEveryField(t, "Add", vtime.Counters.Add, func(a, b int64) int64 { return a + b })
}
