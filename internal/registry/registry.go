// Package registry turns the result store into a network service: an
// HTTP server exposing a resultdb.DirStore by content address, an HTTP
// client implementing resultdb.Store, and a tiered store layering a
// local directory cache in front of a remote registry. Together they
// let N sweep workers on machines with no shared filesystem populate
// one result cache and let a merge consumer assemble figures from it,
// byte-identical to a local run.
//
// # Wire protocol
//
// The registry speaks content-addressed GET/PUT by fingerprint, the
// same shape OCI-style registries use for blobs:
//
//	GET  /v1/schema          → 200 {"schema": "<stamp>"}
//	GET  /v1/manifest        → 200 {"schema": "<stamp>", "keys": ["<fp>", ...]}
//	GET  /v1/cells/<fp>      → 200 <record> | 404 | 409
//	PUT  /v1/cells/<fp>      → 204 | 400 | 409
//
// A record is the store's schema-stamped cell JSON (resultdb.Record):
//
//	{"schema": "<stamp>", "key": "<fp>", "result": {...}}         a success
//	{"schema": "<stamp>", "key": "<fp>", "result": {}, "error": "msg"}  a recorded failure
//
// Error responses carry a typed JSON body:
//
//	{"code": "schema-mismatch", "error": "...", "server_schema": "<stamp>"}
//	{"code": "not-found",       "error": "..."}
//	{"code": "bad-record",      "error": "..."}
//
// # Schema handshake
//
// Records are meaningful only under one schema stamp
// (resultdb.SchemaVersion, the record generation). The client fetches
// GET /v1/schema at dial time and refuses to talk to a server of
// another generation — a typed *SchemaMismatchError, not silently
// misread records. Every subsequent request repeats the client's stamp
// in the Registry-Schema header, so a server restarted under a new
// generation rejects in-flight old clients with 409. The model is not
// in the stamp but in each cell key, so binaries with different models
// share a registry and each reads only its own cells.
package registry

import "fmt"

// headerSchema carries the client's schema stamp on every request.
const headerSchema = "Registry-Schema"

// Fleet-trace propagation headers. The client stamps every request with
// its journal's process identity (trace) and a per-attempt span id; the
// server echoes both into its access log and journal, and the lease
// manager records the claiming span as a lease's origin. Merged
// journals (hpcstudy fleetlog) join on these ids to reconstruct one
// cross-process timeline.
const (
	headerTrace = "X-Hpc-Trace"
	headerSpan  = "X-Hpc-Span"
)

// Typed error codes in wire error bodies.
const (
	codeSchemaMismatch = "schema-mismatch"
	codeNotFound       = "not-found"
	codeBadRecord      = "bad-record"
	codeTooLarge       = "record-too-large"
	codeNoWork         = "no-coordinator"
	codeLeaseGone      = "lease-gone"
)

// wireError is the typed JSON body of every non-2xx response.
type wireError struct {
	Code         string `json:"code"`
	Error        string `json:"error"`
	ServerSchema string `json:"server_schema,omitempty"`
}

// wireSchema answers GET /v1/schema.
type wireSchema struct {
	Schema string `json:"schema"`
}

// wireManifest answers GET /v1/manifest.
type wireManifest struct {
	Schema string   `json:"schema"`
	Keys   []string `json:"keys"`
}

// SchemaMismatchError reports a registry whose schema stamp differs
// from this binary's: the two write different record generations, so
// exchanging records would replay numbers the other side misreads. The
// fix is rebuilding both sides from the same source, never ignoring
// the error.
type SchemaMismatchError struct {
	// Client is this binary's stamp; Server the registry's.
	Client, Server string
}

// Error names both stamps so an operator can see which side is stale.
func (e *SchemaMismatchError) Error() string {
	return fmt.Sprintf("registry: schema mismatch: client %s, server %s (rebuild both sides from the same source)",
		e.Client, e.Server)
}
