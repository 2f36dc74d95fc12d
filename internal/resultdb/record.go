package resultdb

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/units"
)

// Record is one cached cell in the form the directory store persists
// and the registry sends: the same schema-stamped JSON on disk and on
// the wire, so a registry round trip is bit-faithful to a local commit.
type Record struct {
	// Schema is the SchemaVersion the record was written under.
	Schema string `json:"schema"`
	// Key echoes the content address, guarding against renamed or
	// cross-copied files.
	Key string `json:"key"`
	// Result is the saved outcome; meaningful only when Error is empty.
	Result core.SavedResult `json:"result"`
	// Error is the recorded failure of a known-bad cell; empty for
	// successful cells.
	Error string `json:"error,omitempty"`
}

// DecodeRecord parses a record's JSON exactly as json.Unmarshal into a
// Record would: the same record for every input it accepts, and an
// error for every input it rejects. Records are encoded by
// json.Marshal, so the form it writes is read in one pass, without the
// reflective decoder's separate validation scan; any other input —
// whitespace between tokens, reordered or unknown fields, damage —
// takes json.Unmarshal itself.
func DecodeRecord(data []byte) (Record, error) {
	if rec, ok := decodeCanonical(data); ok {
		return rec, nil
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// decodeCanonical reads the exact byte form json.Marshal writes for a
// Record — fields in struct order, no whitespace, "error" only when
// non-empty — followed by optional trailing whitespace (a json.Encoder
// ends the wire body with a newline). It reports false at the first
// byte outside that form.
func decodeCanonical(b []byte) (Record, bool) {
	s := scan{b: b, ok: true}
	var r Record
	d, e, m := &r.Result.Deploy, &r.Result.Exec, &r.Result.Exec.MPI
	r.Schema = s.str(`{"schema":`)
	r.Key = s.str(`,"key":`)
	d.Runtime = s.str(`,"result":{"Deploy":{"Runtime":`)
	d.Image = s.str(`,"Image":`)
	d.Nodes = s.int(`,"Nodes":`)
	d.WireSize = units.ByteSize(s.f64(`,"WireSize":`))
	d.StoredSize = units.ByteSize(s.f64(`,"StoredSize":`))
	d.PullTime = units.Seconds(s.f64(`,"PullTime":`))
	d.ConvertTime = units.Seconds(s.f64(`,"ConvertTime":`))
	d.StageTime = units.Seconds(s.f64(`,"StageTime":`))
	d.StartTime = units.Seconds(s.f64(`,"StartTime":`))
	e.Case = s.str(`},"Exec":{"Case":`)
	e.Runtime = s.str(`,"Runtime":`)
	e.FabricPath = s.str(`,"FabricPath":`)
	e.Nodes = s.int(`,"Nodes":`)
	e.Ranks = s.int(`,"Ranks":`)
	e.Threads = s.int(`,"Threads":`)
	e.TimePerStep = units.Seconds(s.f64(`,"TimePerStep":`))
	e.Elapsed = units.Seconds(s.f64(`,"Elapsed":`))
	e.LaunchTime = units.Seconds(s.f64(`,"LaunchTime":`))
	m.End = units.Seconds(s.f64(`,"MPI":{"End":`))
	m.MaxCommTime = units.Seconds(s.f64(`,"MaxCommTime":`))
	m.AvgCommTime = units.Seconds(s.f64(`,"AvgCommTime":`))
	m.TotalBytes = units.ByteSize(s.f64(`,"TotalBytes":`))
	m.TotalMessages = s.int(`,"TotalMessages":`)
	m.RankEnd = s.seconds(`,"RankEnd":`)
	e.CommFraction = s.f64(`},"CommFraction":`)
	e.AvgCGIters = s.f64(`,"AvgCGIters":`)
	e.MaxDivergence = s.f64(`,"MaxDivergence":`)
	s.lit(`}}`)
	if s.peek(`,"error":`) {
		r.Error = s.str(``)
	}
	s.lit(`}`)
	for s.i < len(b) && (b[s.i] == ' ' || b[s.i] == '\t' || b[s.i] == '\r' || b[s.i] == '\n') {
		s.i++
	}
	return r, s.ok && s.i == len(b)
}

// scan is a cursor over one canonical record. ok turns false at the
// first byte the form does not allow; every later read is a no-op.
// Each value read first consumes the literal that precedes it.
type scan struct {
	b  []byte
	i  int
	ok bool
}

// peek consumes want if the input continues with it.
func (s *scan) peek(want string) bool {
	if s.ok && len(s.b)-s.i >= len(want) && string(s.b[s.i:s.i+len(want)]) == want {
		s.i += len(want)
		return true
	}
	return false
}

// skip consumes c if the input continues with it: peek for one byte.
func (s *scan) skip(c byte) bool {
	if s.ok && s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// lit consumes want, which the input must continue with.
func (s *scan) lit(want string) {
	if !s.peek(want) {
		s.ok = false
	}
}

// str reads a string. One made of printable ASCII without escapes is
// copied as it stands; any other is handed, as its own token, to
// json.Unmarshal, which unescapes it and replaces invalid UTF-8
// exactly as it would inside the record.
func (s *scan) str(before string) string {
	s.lit(before)
	if !s.skip('"') {
		s.ok = false
		return ""
	}
	start, plain := s.i-1, true
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			if plain {
				return string(s.b[start+1 : s.i-1])
			}
			var v string
			if json.Unmarshal(s.b[start:s.i], &v) != nil {
				s.ok = false
			}
			return v
		case c == '\\':
			plain = false
			s.i++ // the escaped byte cannot end the string
		case c < ' ' || c >= utf8.RuneSelf:
			plain = false
		}
	}
	s.ok = false
	return ""
}

// num reads a number token checked against the JSON grammar
// (-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?), which is stricter
// than strconv's: no '+', no leading zeros, no hex, no "Inf".
func (s *scan) num(before string) []byte {
	s.lit(before)
	if !s.ok {
		return nil
	}
	start := s.i
	s.skip('-')
	if !s.skip('0') && s.digits() == 0 {
		s.ok = false
	}
	if s.skip('.') && s.digits() == 0 {
		s.ok = false
	}
	if s.skip('e') || s.skip('E') {
		if !s.skip('+') {
			s.skip('-')
		}
		if s.digits() == 0 {
			s.ok = false
		}
	}
	if !s.ok {
		return nil
	}
	return s.b[start:s.i]
}

// digits consumes a run of decimal digits and returns its length.
func (s *scan) digits() int {
	b, i := s.b, s.i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	n := i - s.i
	s.i = i
	return n
}

// f64 reads a float64 as encoding/json does: strconv.ParseFloat, with
// an out-of-range value rejected.
func (s *scan) f64(before string) float64 {
	v, err := strconv.ParseFloat(string(s.num(before)), 64)
	if err != nil {
		s.ok = false
	}
	return v
}

// int reads an int as encoding/json does: strconv.ParseInt, so a
// fraction, an exponent or an overflow is rejected.
func (s *scan) int(before string) int {
	v, err := strconv.ParseInt(string(s.num(before)), 10, strconv.IntSize)
	if err != nil {
		s.ok = false
	}
	return int(v)
}

// seconds reads a []units.Seconds, keeping null (nil) apart from []
// (empty, not nil) as json.Unmarshal does.
func (s *scan) seconds(before string) []units.Seconds {
	s.lit(before)
	if s.peek("null") {
		return nil
	}
	if !s.skip('[') {
		s.ok = false
		return nil
	}
	out := []units.Seconds{}
	if s.skip(']') {
		return out
	}
	for s.ok {
		out = append(out, units.Seconds(s.f64("")))
		if s.skip(']') {
			return out
		}
		if !s.skip(',') {
			s.ok = false
		}
	}
	return nil
}
