package alya

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/vtime"
)

// eventDigest is the sha256 of a log's event stream, one line per event
// with its name resolved and its times at full precision.
func eventDigest(log *vtime.Log) string {
	h := sha256.New()
	for i := 0; i < log.Len(); i++ {
		e := log.At(i)
		fmt.Fprintf(h, "%d %q %d %d %d %x %x %d\n", e.Kind, log.Name(e.Name), e.A, e.B, e.C,
			float64(e.T0), float64(e.T1), int64(e.Size))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestRankProgramPinned pins what the rank program computes and how: the
// sha256 of the Result JSON and of the execution's event stream, for the
// quick CFD and FSI cases in both modes. The goldens cover ModeModel
// only; this covers ModeReal too. The literals were printed at commit
// c2fa5af; they change only if a cell's schedule or outcome does.
func TestRankProgramPinned(t *testing.T) {
	cl := cluster.CTEPower()
	pins := []struct {
		cs             Case
		mode           Mode
		result, events string
	}{
		{QuickCFD(2), ModeModel,
			"f8429aa5c24e6baeafd73eb50de5ccc93dd7a31708f89b14400ac61c8e8f5b19",
			"f75148f88b4a4e9c37057f84158a35d5c4a693fda697dff52754696bec14e025"},
		{QuickCFD(2), ModeReal,
			"ce708bcb285b00bb5d4ada197f624e4ff11a5d96c9970aa2594714da1cc056af",
			"97ed10057d4fc70a35515fea66fdaf73077c2c83d17aa4785dc8d62526ae3614"},
		{QuickFSI(2), ModeModel,
			"989663562928de6a1f5d241e1209488ae6e5c52808f94fd3f7ba0ab8f4aa3060",
			"99a5b0e3580fdbc52f4eeeff6a46dba4937982be0d66d6b1dd4cb1c1339056a6"},
		{QuickFSI(2), ModeReal,
			"47c9d370da8858ec33410f21d1b7b3bf1fd5829fb9ff95ea791421d7198864a4",
			"7bc9b10884eb05cc30e9ff9470bde50d62225046fa635e63d16b859244acf6b5"},
	}
	for _, pin := range pins {
		log := &vtime.Log{}
		res, err := Run(Spec{Job: job(t, cl, 2, 8, 1), Profile: bareProfile(t, cl), Case: pin.cs, Mode: pin.mode, Log: log})
		if err != nil {
			t.Fatalf("%s %v: %v", pin.cs.Name, pin.mode, err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		result, events := fmt.Sprintf("%x", sha256.Sum256(data)), eventDigest(log)
		if result != pin.result || events != pin.events {
			t.Errorf("%s %v: result %s, events %s; pinned %s, %s",
				pin.cs.Name, pin.mode, result, events, pin.result, pin.events)
		}
	}
}
