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
// only; this covers ModeReal too. The literals were printed when CG
// began reducing ‖r‖² once per iteration and ModeModel took the
// solvers' step skeleton; they change only if a cell's schedule or
// outcome does.
func TestRankProgramPinned(t *testing.T) {
	cl := cluster.CTEPower()
	pins := []struct {
		cs             Case
		mode           Mode
		result, events string
	}{
		{QuickCFD(2), ModeModel,
			"d5ccc9f49c0d725923bb0fccd08fbaf8d993ebc5e99c5ae9152ac56a1d80caac",
			"2fd775192c6c390b3840f863e6da2089c46c2931f75ae6505c4b4eaa41d2b459"},
		{QuickCFD(2), ModeReal,
			"28826baad362bdb1b30c8983243cb635194c3dacb942e732c58af16f220926ba",
			"af69d903f46f3d5eb1e9f78e0cfffb3b29118f3ecfc331ca6027f6376710a4ee"},
		{QuickFSI(2), ModeModel,
			"06c9878f285f723d04767d7b79d5e020a8f81038d012fc65ad4ab7736d6a6442",
			"cce73b9c537ecf18baf9323d74377a3585c4c68bb7e5189afd8e35852f8e40d9"},
		{QuickFSI(2), ModeReal,
			"47baddd0ceb001655fb4558d79365b6296b1cd1220e8cdda8ad5441cdfe5c30b",
			"acefabed4a951b6e8fadfa2108c4360f743bfe809c2789bebf756765467ff47e"},
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
