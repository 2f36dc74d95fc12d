package resultdb

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// GCPolicy bounds a store directory. Zero fields mean unbounded: the
// zero policy evicts nothing.
type GCPolicy struct {
	// MaxBytes caps the total size of record files; eviction removes
	// the least-recently-accessed records until the cap holds. 0 means
	// no size bound.
	MaxBytes int64
	// MaxAge evicts records not accessed (read or written) within the
	// duration. 0 means no age bound.
	MaxAge time.Duration
}

// Bounded reports whether the policy can evict anything.
func (p GCPolicy) Bounded() bool { return p.MaxBytes > 0 || p.MaxAge > 0 }

// GCReport summarises one collection pass.
type GCReport struct {
	// Scanned counts record files examined; Evicted those removed.
	Scanned, Evicted int
	// EvictedBytes and RetainedBytes partition the scanned sizes.
	EvictedBytes, RetainedBytes int64
	// Pinned counts records the policy selected but Pin protected —
	// cells of an in-flight sweep are never evicted under it.
	Pinned int
}

// String renders the report for CLI and server logs.
func (r GCReport) String() string {
	return fmt.Sprintf("gc: %d records scanned, %d evicted (%d bytes), %d retained bytes, %d pinned",
		r.Scanned, r.Evicted, r.EvictedBytes, r.RetainedBytes, r.Pinned)
}

// gcItem is one record file under consideration.
type gcItem struct {
	key  string
	size int64
	last time.Time
}

// GC evicts records according to pol: first everything whose last
// access predates now-MaxAge, then — least-recently-accessed first —
// until the retained bytes fit MaxBytes. Last access is the newest of
// the record's access-journal entries and its file mtime, so a store
// populated before the journal existed still ages correctly. Pinned
// keys are never evicted. After eviction both journals are compacted
// to the surviving records.
//
// GC serialises against this process's reads and writes; concurrent
// writers in other processes should be quiesced (or route through the
// serving process, whose periodic GC shares this store), since journal
// compaction rewrites files those writers append to. A record another
// process commits mid-collection is at worst missing from the
// compacted manifest — a directory scan or a re-Put restores it, per
// the journal-is-advisory contract.
func (s *DirStore) GC(now time.Time, pol GCPolicy) (GCReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-arm the once-per-process access journaling: recency appends
	// are coalesced between collections (touchLocked), so each pass
	// resets the guard and a long-lived server refreshes every
	// actively-used key at least once per GC interval — an hourly
	// reader can never age past -max-age.
	defer func() { s.touched = make(map[string]bool) }()

	lastAccess, accessLines, err := s.readAccessLocked()
	if err != nil {
		return GCReport{}, err
	}
	items, total, err := s.scanLocked(lastAccess)
	if err != nil {
		return GCReport{}, err
	}
	rep := GCReport{Scanned: len(items), RetainedBytes: total}

	sort.Slice(items, func(i, j int) bool { return items[i].last.Before(items[j].last) })
	evict := make([]gcItem, 0, len(items))
	keep := items[:0]
	pinnedKept := make(map[string]bool)
	for _, it := range items {
		tooOld := pol.MaxAge > 0 && now.Sub(it.last) > pol.MaxAge
		if tooOld && s.pins[it.key] == 0 {
			evict = append(evict, it)
			continue
		}
		if tooOld {
			pinnedKept[it.key] = true
		}
		keep = append(keep, it)
	}
	if pol.MaxBytes > 0 {
		retained := total
		for _, it := range evict {
			retained -= it.size
		}
		// keep is still oldest-first: shed from the cold end.
		kept := keep[:0]
		for _, it := range keep {
			if retained > pol.MaxBytes && s.pins[it.key] == 0 {
				evict = append(evict, it)
				retained -= it.size
				continue
			}
			if retained > pol.MaxBytes {
				pinnedKept[it.key] = true
			}
			kept = append(kept, it)
		}
		keep = kept
	}
	rep.Pinned = len(pinnedKept)

	for _, it := range evict {
		if err := os.Remove(s.recordPath(it.key)); err != nil && !os.IsNotExist(err) {
			return rep, fmt.Errorf("resultdb: gc: %w", err)
		}
		delete(s.known, it.key)
		rep.Evicted++
		rep.EvictedBytes += it.size
	}
	rep.RetainedBytes = total - rep.EvictedBytes

	// Every pass that scanned an oversized access journal compacts it
	// to one line per record, even with nothing evicted — hot stores
	// append one line per hit, and an in-bounds policy must not let
	// the journal outgrow the records it describes.
	if rep.Evicted == 0 {
		if accessLines > 2*len(items)+compactSlack {
			access := append([]gcItem(nil), keep...)
			sort.Slice(access, func(i, j int) bool { return access[i].key < access[j].key })
			if err := s.rewriteJournalLocked(&s.access, accessName, nil, access); err != nil {
				return rep, err
			}
		}
		return rep, nil
	}

	// Compact both journals to the survivors. The manifest is rebuilt
	// from the scan (dropping keys whose files had already vanished);
	// the access journal keeps one line per survivor at its computed
	// last-access time.
	surviving := make([]string, 0, len(keep))
	for _, it := range keep {
		surviving = append(surviving, it.key)
	}
	sort.Strings(surviving)
	if err := s.rewriteJournalLocked(&s.manifest, manifestName, surviving, nil); err != nil {
		return rep, err
	}
	access := keep
	sort.Slice(access, func(i, j int) bool { return access[i].key < access[j].key })
	if err := s.rewriteJournalLocked(&s.access, accessName, nil, access); err != nil {
		return rep, err
	}
	s.known = make(map[string]bool, len(surviving))
	for _, k := range surviving {
		s.known[k] = true
	}
	return rep, nil
}

// compactSlack is how many access-journal lines beyond 2× the record
// count a pass tolerates before compacting the journal anyway.
const compactSlack = 1024

// readAccessLocked parses the access journal into last-access times,
// keeping the newest entry per key, and reports the raw line count so
// GC can decide whether the journal needs compacting. Damaged lines,
// however long, are skipped — the record mtime remains as a floor.
func (s *DirStore) readAccessLocked() (map[string]time.Time, int, error) {
	out := make(map[string]time.Time)
	data, err := os.ReadFile(filepath.Join(s.dir, accessName))
	if err != nil && !os.IsNotExist(err) {
		return nil, 0, fmt.Errorf("resultdb: gc: %w", err)
	}
	lines := 0
	for line := range strings.Lines(string(data)) {
		lines++
		ts, key, ok := strings.Cut(strings.TrimSpace(line), " ")
		if !ok {
			continue
		}
		unix, err := strconv.ParseInt(ts, 10, 64)
		if err != nil {
			continue
		}
		when := time.Unix(unix, 0)
		if prev, seen := out[key]; !seen || when.After(prev) {
			out[key] = when
		}
	}
	return out, lines, nil
}

// scanLocked walks the fan-out directories and sizes every record
// file, resolving each record's last access from the journal with the
// file mtime as floor.
func (s *DirStore) scanLocked(lastAccess map[string]time.Time) ([]gcItem, int64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, 0, fmt.Errorf("resultdb: gc: %w", err)
	}
	var items []gcItem
	var total int64
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, e.Name()))
		if err != nil {
			return nil, 0, fmt.Errorf("resultdb: gc: %w", err)
		}
		for _, f := range files {
			key, isRec := strings.CutSuffix(f.Name(), ".json")
			if !isRec || f.IsDir() {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue // deleted underneath us: no longer ours to collect
			}
			last := info.ModTime()
			if t, ok := lastAccess[key]; ok && t.After(last) {
				last = t
			}
			items = append(items, gcItem{key: key, size: info.Size(), last: last})
			total += info.Size()
		}
	}
	return items, total, nil
}

// rewriteJournalLocked atomically replaces a journal file with the
// surviving entries and reopens the append handle. Exactly one of
// keys (manifest lines) or access (timestamped lines) is used.
func (s *DirStore) rewriteJournalLocked(handle **os.File, name string, keys []string, access []gcItem) error {
	if *handle != nil {
		(*handle).Close()
		*handle = nil
	}
	path := filepath.Join(s.dir, name)
	tmp, err := os.CreateTemp(s.dir, name+"-*")
	if err != nil {
		return fmt.Errorf("resultdb: gc: %w", err)
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	for _, k := range keys {
		fmt.Fprintln(w, k)
	}
	for _, it := range access {
		fmt.Fprintf(w, "%d %s\n", it.last.Unix(), it.key)
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("resultdb: gc: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("resultdb: gc: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("resultdb: gc: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("resultdb: gc: %w", err)
	}
	reopened, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("resultdb: gc: %w", err)
	}
	*handle = reopened
	return nil
}
