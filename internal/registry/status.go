package registry

import (
	"html/template"
	"net/http"

	"repro/internal/resultdb"
	"repro/internal/telemetry"
)

// Fleet status: GET /v1/status serves a JSON snapshot of the whole
// deployment — schema, sweep progress, and every worker's last
// heartbeat-reported progress/attribution summary — and GET / renders
// the same snapshot as a zero-dependency HTML page (stdlib templates,
// inline CSS, meta-refresh; nothing fetched from anywhere). Both work
// on a plain cache server too, just without the sweep sections.

// FleetStatus is the body of GET /v1/status.
type FleetStatus struct {
	// Schema is the server's record-schema stamp.
	Schema string `json:"schema"`
	// StoreKeys counts records in the backing store.
	StoreKeys int `json:"store_keys"`
	// Work is the sweep snapshot; nil when the server is a plain cache
	// rather than a coordinator.
	Work *WorkStatus `json:"work,omitempty"`
	// Workers lists every worker the coordinator has heard from,
	// sorted by name.
	Workers []WorkerStatus `json:"workers,omitempty"`
	// Totals sums the workers' progress summaries.
	Totals WorkerProgress `json:"totals"`
}

// fleetStatus assembles the snapshot (and folds lazy-expiry fallout
// into metrics when a queue is attached).
func (s *Server) fleetStatus() FleetStatus {
	fs := FleetStatus{
		Schema:    resultdb.SchemaVersion,
		StoreKeys: len(s.store.Keys()),
	}
	if s.opt.Work != nil {
		st, workers, ev := s.opt.Work.Fleet()
		s.noteWorkEvents(ev)
		fs.Work = &st
		fs.Workers = workers
		for _, w := range workers {
			fs.Totals.add(w.Progress)
		}
	}
	return fs
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.fleetStatus())
}

// noteWorkerProgress mirrors a worker's heartbeat summary into the
// scrapeable metrics families, labelled by worker.
func (s *Server) noteWorkerProgress(worker string, p WorkerProgress) {
	lw := telemetry.L("worker", worker)
	s.metrics.Gauge("registry_worker_cells", "Cells run to completion, by worker and provenance.",
		lw, telemetry.L("kind", "simulated")).Set(float64(p.Simulated))
	s.metrics.Gauge("registry_worker_cells", "Cells run to completion, by worker and provenance.",
		lw, telemetry.L("kind", "replayed")).Set(float64(p.Replayed))
	s.metrics.Gauge("registry_worker_failures", "Cells whose run errored, by worker.", lw).
		Set(float64(p.Failures))
	s.metrics.Gauge("registry_worker_virtual_seconds", "Simulated virtual time over all ranks, by worker.", lw).
		Set(p.VirtualSeconds)
	s.metrics.Gauge("registry_worker_comm_seconds", "Virtual time the MPI engine accounted to communication, by worker.", lw).
		Set(p.CommSeconds)
}

// statusPage is the status page: one HTML document, styles inline, no
// scripts, no external fetches; a meta refresh keeps it live.
var statusPage = template.Must(template.New("status").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="2">
<title>hpcstudy registry</title>
<style>
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem; color: #1a1a1a; }
h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.5rem; }
table { border-collapse: collapse; margin-top: .5rem; }
th, td { border: 1px solid #ccc; padding: .25rem .6rem; text-align: right; }
th:first-child, td:first-child { text-align: left; }
.bar { background: #eee; width: 16rem; height: 1rem; border-radius: 2px; }
.bar div { background: #2a7; height: 100%; border-radius: 2px; }
.muted { color: #777; }
.stale td { background: #fce8e6; }
.stale td:first-child::after { content: " ⚠"; }
</style>
</head>
<body>
<h1>hpcstudy registry</h1>
<p class="muted">schema {{.Schema}} &middot; {{.StoreKeys}} records in store</p>
{{if .Work}}
<h2>sweep {{.Work.Study}} <span class="muted">(stamp {{.Work.Stamp}})</span></h2>
<div class="bar"><div style="width: {{.DonePercent}}%"></div></div>
<p>{{.Work.DoneCells}} / {{.Work.TotalCells}} cells done
({{.Work.LeasedCells}} leased, {{.Work.PendingCells}} pending) &middot;
{{.Work.ActiveLeases}} active leases, {{.Work.ExpiredLeases}} expired,
{{.Work.Requeues}} requeues{{if .Work.Done}} &middot; <strong>done</strong>{{end}}</p>
<h2>workers</h2>
{{if .Workers}}
<table>
<tr><th>worker</th><th>lease</th><th>batches</th><th>cells</th><th>simulated</th><th>replayed</th><th>failures</th><th>virtual s</th><th>comm s</th><th>last seen</th></tr>
{{range .Workers}}
<tr{{if .Stale}} class="stale"{{end}}><td>{{.Name}}</td><td>{{if .Lease}}{{.Lease}} ({{.LeaseCells}} cells){{else}}&mdash;{{end}}</td>
<td>{{.Batches}}</td><td>{{.Progress.Cells}}</td><td>{{.Progress.Simulated}}</td>
<td>{{.Progress.Replayed}}</td><td>{{.Progress.Failures}}</td>
<td>{{printf "%.3f" .Progress.VirtualSeconds}}</td><td>{{printf "%.3f" .Progress.CommSeconds}}</td>
<td>{{.LastSeenMillis}} ms ago{{if .Stale}} <strong>stalled?</strong>{{end}}</td></tr>
{{end}}
</table>
{{else}}<p class="muted">no workers have contacted this coordinator yet</p>{{end}}
{{else}}
<p class="muted">not coordinating a sweep (plain result cache)</p>
{{end}}
<p class="muted">JSON: <a href="/v1/status">/v1/status</a> &middot; metrics: <a href="/v1/metrics">/v1/metrics</a></p>
</body>
</html>
`))

// statusView wraps FleetStatus with the bits templates cannot compute.
type statusView struct {
	FleetStatus
	DonePercent int
}

func (s *Server) handleStatusPage(w http.ResponseWriter, r *http.Request) {
	v := statusView{FleetStatus: s.fleetStatus()}
	if v.Work != nil && v.Work.TotalCells > 0 {
		v.DonePercent = 100 * v.Work.DoneCells / v.Work.TotalCells
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := statusPage.Execute(w, v); err != nil {
		s.logf("registry: status page render failed: %v", err)
	}
}
