package resultdb

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// gcStore opens a store with n committed records and returns it with
// each record file's size (index i-1 holds key(i)'s).
func gcStore(t *testing.T, dir string, n int) (*DirStore, []int64) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	var sizes []int64
	for i := 1; i <= n; i++ {
		if err := s.Put(key(i), sample(i)); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(s.recordPath(key(i)))
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, info.Size())
	}
	return s, sizes
}

// sum totals record sizes.
func sum(sizes []int64) int64 {
	var t int64
	for _, s := range sizes {
		t += s
	}
	return t
}

// touchAt appends an access-journal line for key at a chosen time, the
// way a later read would, so tests order recency without sleeping.
func touchAt(t *testing.T, dir, key string, at time.Time) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, accessName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fmt.Fprintf(f, "%d %s\n", at.Unix(), key)
}

// TestGCZeroPolicyNoop asserts the zero policy scans but never evicts.
func TestGCZeroPolicyNoop(t *testing.T) {
	s, sizes := gcStore(t, t.TempDir(), 3)
	rep, err := s.GC(time.Now(), GCPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 3 || rep.Evicted != 0 || rep.RetainedBytes != sum(sizes) {
		t.Fatalf("zero policy: %+v (total %d)", rep, sum(sizes))
	}
}

// TestGCAgePolicy asserts MaxAge evicts records whose last access
// predates the horizon, and that the store keeps working afterwards.
func TestGCAgePolicy(t *testing.T) {
	dir := t.TempDir()
	s, _ := gcStore(t, dir, 3)

	// Within the horizon nothing is old enough.
	rep, err := s.GC(time.Now(), GCPolicy{MaxAge: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Evicted != 0 {
		t.Fatalf("fresh records evicted: %+v", rep)
	}

	// Two days on, everything has aged out.
	rep, err = s.GC(time.Now().Add(48*time.Hour), GCPolicy{MaxAge: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Evicted != 3 || rep.RetainedBytes != 0 {
		t.Fatalf("aged records survived: %+v", rep)
	}
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("evicted record still readable")
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("known keys after full eviction: %d", got)
	}
	// The store stays writable and a fresh commit is durable.
	if err := s.Put(key(9), sample(9)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key(9)); !ok {
		t.Fatal("post-GC commit unreadable")
	}
}

// TestGCSizePolicyEvictsColdest asserts MaxBytes sheds the
// least-recently-accessed records first, with recency taken from the
// access journal rather than file order.
func TestGCSizePolicyEvictsColdest(t *testing.T) {
	dir := t.TempDir()
	s, sizes := gcStore(t, dir, 3)
	now := time.Now()
	// key 2 stays at its commit time; 1 and 3 are read later.
	touchAt(t, dir, key(1), now.Add(10*time.Hour))
	touchAt(t, dir, key(3), now.Add(20*time.Hour))

	rep, err := s.GC(now.Add(30*time.Hour), GCPolicy{MaxBytes: sum(sizes) - 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Evicted != 1 {
		t.Fatalf("want exactly one eviction under MaxBytes=total-1: %+v", rep)
	}
	if _, ok := s.Get(key(2)); ok {
		t.Fatal("coldest record survived size eviction")
	}
	for _, i := range []int{1, 3} {
		if _, ok := s.Get(key(i)); !ok {
			t.Fatalf("recently accessed record %d evicted", i)
		}
	}
}

// TestGCNeverEvictsPinned is the in-flight-sweep invariant: a pinned
// record survives any policy until released.
func TestGCNeverEvictsPinned(t *testing.T) {
	dir := t.TempDir()
	s, _ := gcStore(t, dir, 3)
	release := s.Pin([]string{key(1)})

	rep, err := s.GC(time.Now().Add(48*time.Hour), GCPolicy{MaxAge: time.Hour, MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pinned == 0 {
		t.Fatalf("report does not count the protected record: %+v", rep)
	}
	if _, ok := s.Get(key(1)); !ok {
		t.Fatal("pinned record evicted")
	}
	if rep.Evicted != 2 {
		t.Fatalf("unpinned records should all go: %+v", rep)
	}

	release()
	release() // releases are idempotent; a double call must not unpin others' pins
	rep, err = s.GC(time.Now().Add(48*time.Hour), GCPolicy{MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Evicted != 1 {
		t.Fatalf("released record not collected: %+v", rep)
	}
}

// TestGCCompactsJournals asserts eviction rewrites both journals to
// the survivors, so a later Open sees a truthful index.
func TestGCCompactsJournals(t *testing.T) {
	dir := t.TempDir()
	s, sizes := gcStore(t, dir, 4)
	now := time.Now()
	touchAt(t, dir, key(3), now.Add(10*time.Hour))
	touchAt(t, dir, key(4), now.Add(10*time.Hour))

	if _, err := s.GC(now.Add(20*time.Hour), GCPolicy{MaxBytes: sizes[2] + sizes[3]}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{manifestName, accessName} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{1, 2} {
			if strings.Contains(string(data), key(i)) {
				t.Fatalf("%s still lists evicted %s:\n%s", name, key(i), data)
			}
		}
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Len(); got != 2 {
		t.Fatalf("reopened store knows %d keys, want 2", got)
	}
	for _, i := range []int{3, 4} {
		if _, ok := s2.Get(key(i)); !ok {
			t.Fatalf("survivor %d unreadable after compaction", i)
		}
	}
}

// TestGCCompactsOversizedAccessJournal asserts a pass with nothing to
// evict still compacts a journal that outgrew its records — hot
// stores append one line per hit, and an in-bounds policy must not
// let the file grow forever.
func TestGCCompactsOversizedAccessJournal(t *testing.T) {
	dir := t.TempDir()
	s, _ := gcStore(t, dir, 2)
	now := time.Now()

	f, err := os.OpenFile(filepath.Join(dir, accessName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*2+compactSlack+100; i++ {
		fmt.Fprintf(f, "%d %s\n", now.Add(time.Duration(i)*time.Second).Unix(), key(1+i%2))
	}
	f.Close()

	rep, err := s.GC(now, GCPolicy{MaxAge: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Evicted != 0 {
		t.Fatalf("in-bounds pass evicted: %+v", rep)
	}
	data, err := os.ReadFile(filepath.Join(dir, accessName))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 2 {
		t.Fatalf("compacted journal has %d lines, want 2:\n%s", lines, data)
	}
	// Recency survives compaction: both records still read and a
	// fresh aggressive pass still sees the newest access times.
	for _, i := range []int{1, 2} {
		if _, ok := s.Get(key(i)); !ok {
			t.Fatalf("record %d lost to journal compaction", i)
		}
	}
}

// TestGCSkipsOverlongAccessLine asserts a damaged access-journal line
// longer than a bufio.Scanner token is skipped like any other, instead
// of failing every later collection.
func TestGCSkipsOverlongAccessLine(t *testing.T) {
	dir := t.TempDir()
	s, _ := gcStore(t, dir, 2)
	touchAt(t, dir, strings.Repeat("f", 1<<17), time.Now())
	rep, err := s.GC(time.Now(), GCPolicy{MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 2 || rep.Evicted != 0 {
		t.Fatalf("pass over a damaged journal: %+v", rep)
	}
}

// FuzzJournals opens a store over arbitrary manifest and access journal
// bytes, commits to it and collects it. Nothing may panic; Keys lists
// only well-formed keys; a torn last manifest line is ended, so the
// next commit's key replays; and journals a collection rewrites parse
// back, one survivor per line.
func FuzzJournals(f *testing.F) {
	k := func(i int) string { return key(i) + "\n" }
	f.Add([]byte(k(1)+k(2)+key(3)[:20]), []byte("1700000000 "+k(1)), uint8(2))
	f.Add([]byte(key(1)+"\r\n"+key(2)+"\r\n"), []byte("1700000000 "+key(2)+"\r\n"), uint8(1))
	f.Add([]byte(k(1)+strings.Repeat("z", 64)+"\n../evil\n"+k(3)), []byte(k(3)), uint8(3))
	f.Add([]byte(k(2)), []byte("yesterday "+k(1)+"1700000000 "+k(2)+"-5 "+k(3)), uint8(0))
	f.Fuzz(func(t *testing.T, manifest, access []byte, keep uint8) {
		dir := t.TempDir()
		s, sizes := gcStore(t, dir, 3)
		s.Close()
		for name, data := range map[string][]byte{manifestName: manifest, accessName: access} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		reopen := func() *DirStore {
			t.Helper()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			for _, k := range s.Keys() {
				if !ValidKey(k) {
					t.Fatalf("Keys lists %q", k)
				}
			}
			return s
		}
		s = reopen()
		if err := s.Put(key(9), sample(9)); err != nil {
			t.Fatal(err)
		}
		s.Close()
		s = reopen()
		if !slices.Contains(s.Keys(), key(9)) {
			t.Fatalf("a commit after manifest %q did not replay: keys %v", manifest, s.Keys())
		}

		rep, err := s.GC(time.Now(), GCPolicy{MaxBytes: int64(keep%4) * slices.Min(sizes)})
		if err != nil {
			t.Fatalf("gc over access journal %q: %v", access, err)
		}
		s.Close()
		s = reopen()
		if rep.Evicted == 0 {
			return
		}
		want := s.Keys()
		if len(want) != rep.Scanned-rep.Evicted {
			t.Fatalf("%d keys survive a pass that kept %d of %d records", len(want), rep.Scanned-rep.Evicted, rep.Scanned)
		}
		for _, name := range []string{manifestName, accessName} {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, line := range strings.SplitAfter(string(data), "\n") {
				if line == "" {
					continue
				}
				k, ok := strings.CutSuffix(line, "\n")
				if name == accessName {
					var ts string
					ts, k, _ = strings.Cut(k, " ")
					if _, err := strconv.ParseInt(ts, 10, 64); err != nil {
						ok = false
					}
				}
				if !ok || !ValidKey(k) {
					t.Fatalf("rewritten %s has line %q:\n%s", name, line, data)
				}
				got = append(got, k)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("rewritten %s lists %v, want the survivors %v", name, got, want)
			}
		}
	})
}
