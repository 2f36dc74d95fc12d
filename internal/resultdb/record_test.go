package resultdb

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/units"
)

// randomRecord builds a record whose every field is drawn from r:
// strings with quotes, HTML characters, control bytes, non-ASCII and
// invalid UTF-8; floats over the whole finite range, signed zeros
// included; ints of every sign and size; and a RankEnd that is nil,
// empty or populated.
func randomRecord(r *rand.Rand) Record {
	pieces := []string{"Singularity", "bsc/alya:v2.0", `"`, `\`, "<", ">", "&", "\u2028", "\x01", "\n", "é", "\xff", " ", "/", "0"}
	str := func() string {
		var sb strings.Builder
		for n := r.Intn(5); n > 0; n-- {
			sb.WriteString(pieces[r.Intn(len(pieces))])
		}
		return sb.String()
	}
	f64 := func() float64 {
		switch r.Intn(5) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return float64(r.Intn(2000) - 1000)
		case 3:
			return r.NormFloat64() * math.Pow(10, float64(r.Intn(60)-30))
		}
		for {
			if v := math.Float64frombits(r.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
				return v
			}
		}
	}
	num := func() int {
		if r.Intn(2) == 0 {
			return r.Intn(200) - 100
		}
		return int(r.Int63()) - int(r.Int63())
	}
	var rec Record
	rec.Schema, rec.Key = str(), str()
	if r.Intn(3) == 0 {
		rec.Error = str()
	}
	d, e, m := &rec.Result.Deploy, &rec.Result.Exec, &rec.Result.Exec.MPI
	d.Runtime, d.Image, d.Nodes = str(), str(), num()
	d.WireSize, d.StoredSize = units.ByteSize(f64()), units.ByteSize(f64())
	d.PullTime, d.ConvertTime, d.StageTime, d.StartTime = units.Seconds(f64()), units.Seconds(f64()), units.Seconds(f64()), units.Seconds(f64())
	e.Case, e.Runtime, e.FabricPath = str(), str(), str()
	e.Nodes, e.Ranks, e.Threads = num(), num(), num()
	e.TimePerStep, e.Elapsed, e.LaunchTime = units.Seconds(f64()), units.Seconds(f64()), units.Seconds(f64())
	m.End, m.MaxCommTime, m.AvgCommTime = units.Seconds(f64()), units.Seconds(f64()), units.Seconds(f64())
	m.TotalBytes, m.TotalMessages = units.ByteSize(f64()), num()
	switch r.Intn(3) {
	case 0:
		m.RankEnd = nil
	case 1:
		m.RankEnd = []units.Seconds{}
	default:
		for n := 1 + r.Intn(20); n > 0; n-- {
			m.RankEnd = append(m.RankEnd, units.Seconds(f64()))
		}
	}
	e.CommFraction, e.AvgCGIters, e.MaxDivergence = f64(), f64(), f64()
	return rec
}

// sameRecord reports whether two records are equal field for field and
// bit for bit: DeepEqual, which also tells a nil RankEnd from an empty
// one, and equal re-encodings, which tell -0 from 0.
func sameRecord(a, b Record) bool {
	ja, erra := json.Marshal(a)
	jb, errb := json.Marshal(b)
	return reflect.DeepEqual(a, b) && erra == nil && errb == nil && bytes.Equal(ja, jb)
}

// TestDecodeRecordTakesCanonicalPath is the reason the single-pass
// path exists: every record json.Marshal writes — as a DirStore file
// and as a registry body, which a json.Encoder ends with a newline —
// decodes on it, to what json.Unmarshal reads from the same bytes
// (the encoded record itself, save invalid UTF-8 turned into U+FFFD).
func TestDecodeRecordTakesCanonicalPath(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		rec := randomRecord(r)
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		var wire bytes.Buffer
		if err := json.NewEncoder(&wire).Encode(rec); err != nil {
			t.Fatal(err)
		}
		var want Record
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		for _, in := range [][]byte{data, wire.Bytes()} {
			got, ok := decodeCanonical(in)
			if !ok {
				t.Fatalf("record %d left the single-pass path:\n%s", i, in)
			}
			if !sameRecord(got, want) {
				t.Fatalf("record %d decoded to\n%+v\nwant\n%+v", i, got, want)
			}
		}
	}

	// A record file as the store writes it takes the path too.
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(key(1), sample(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutError(key(2), `exit "1": <stderr> & more`); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{key(1), key(2)} {
		data, err := os.ReadFile(s.recordPath(k))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := decodeCanonical(data); !ok {
			t.Fatalf("stored record %s left the single-pass path:\n%s", k, data)
		}
	}
}

// FuzzDecodeRecord holds DecodeRecord to json.Unmarshal on arbitrary
// bytes: both accept or both reject, and what they accept is the same
// record. Whenever the single-pass path accepts an input, so must
// json.Unmarshal, with that record.
func FuzzDecodeRecord(f *testing.F) {
	enc := func(rec Record) []byte {
		data, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	ok := Record{Schema: SchemaVersion, Key: key(7), Result: sample(7)}
	failure := Record{Schema: SchemaVersion, Key: key(8), Error: `exec "alya": <nil> & exit 1`}
	null := ok
	null.Result.Exec.MPI.RankEnd = nil
	empty := ok
	empty.Result.Exec.MPI.RankEnd = []units.Seconds{}
	negZero := ok
	negZero.Result.Exec.MaxDivergence = math.Copysign(0, -1)
	negZero.Result.Exec.MPI.RankEnd = []units.Seconds{units.Seconds(math.Copysign(0, -1))}
	whole := enc(ok)
	for _, data := range [][]byte{whole, enc(failure), enc(null), enc(empty), enc(negZero), whole[:len(whole)-7]} {
		f.Add(data)
	}
	f.Fuzz(checkDecode)
}

// checkDecode fails t unless DecodeRecord and json.Unmarshal agree on
// data, and the single-pass path accepts nothing json.Unmarshal reads
// differently.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	got, err := DecodeRecord(data)
	var want Record
	werr := json.Unmarshal(data, &want)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%q: DecodeRecord error %v, json.Unmarshal error %v", data, err, werr)
	}
	if err == nil && !sameRecord(got, want) {
		t.Fatalf("%q: DecodeRecord gave\n%+v\njson.Unmarshal gave\n%+v", data, got, want)
	}
	if fast, ok := decodeCanonical(data); ok && (werr != nil || !sameRecord(fast, want)) {
		t.Fatalf("%q: single-pass path accepted what json.Unmarshal reads as %+v, %v:\n%+v", data, want, werr, fast)
	}
}

// TestDecodeRecordSingleByteEdits replaces, and inserts before, every
// byte of a small canonical record with each byte the JSON grammar
// treats specially, and holds DecodeRecord to json.Unmarshal on every
// result — the near misses a random fuzzer reaches only by luck.
func TestDecodeRecordSingleByteEdits(t *testing.T) {
	rec := Record{Schema: "2-x", Key: "k", Error: "e"}
	rec.Result.Deploy.Nodes = 10
	rec.Result.Exec.MPI.RankEnd = []units.Seconds{0.5, 1e-7}
	rec.Result.Exec.AvgCGIters = -2.5e21
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		for _, c := range []byte("+-.09eE \n\x01\"\\u,]}\xff") {
			checkDecode(t, slices.Concat(data[:i], []byte{c}, data[i+1:]))
			checkDecode(t, slices.Concat(data[:i], []byte{c}, data[i:]))
		}
	}
}
