package registry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestPutBodyTooLarge: an oversized PUT is cut off with a typed 413 —
// the server never buffers past maxRecordBytes.
func TestPutBodyTooLarge(t *testing.T) {
	_, ts, _ := newRegistry(t)
	// One byte past the limit; the reader streams zeros so the test
	// does not allocate 32 MiB itself.
	body := io.LimitReader(zeroReader{}, maxRecordBytes+1)
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/cells/"+key(1), body)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = maxRecordBytes + 1
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	var we wireError
	if err := json.NewDecoder(resp.Body).Decode(&we); err != nil {
		t.Fatal(err)
	}
	if we.Code != codeTooLarge {
		t.Fatalf("error code %q, want %q", we.Code, codeTooLarge)
	}
	if !strings.Contains(we.Error, fmt.Sprint(maxRecordBytes)) {
		t.Fatalf("413 body should name the limit: %q", we.Error)
	}
}

// TestWorkBodyTooLarge: the work endpoints read a lease id and a
// progress record, never more — an oversized claim, heartbeat or
// complete body is cut off with the same typed 413 and the queue does
// not move.
func TestWorkBodyTooLarge(t *testing.T) {
	store, _, _ := newRegistry(t)
	q := NewWorkQueue(cellsNamed("g", "k1", "k2"), QueueOptions{Study: "t", BatchSize: 2, Clock: newFakeClock().Now})
	ts := httptest.NewServer(NewServer(store, ServerOptions{Work: q}))
	defer ts.Close()
	before, _ := q.Status()
	for _, endpoint := range []string{"claim", "heartbeat", "complete"} {
		// An unterminated JSON string one byte past the limit, streamed.
		body := io.MultiReader(strings.NewReader(`{"worker":"`), io.LimitReader(zeroReader{}, maxWorkBodyBytes))
		resp, err := http.Post(ts.URL+"/v1/work/"+endpoint, "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		var we wireError
		err = json.NewDecoder(resp.Body).Decode(&we)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge || we.Code != codeTooLarge {
			t.Errorf("%s: status %d code %q, want 413 %q", endpoint, resp.StatusCode, we.Code, codeTooLarge)
		}
		if !strings.Contains(we.Error, fmt.Sprint(maxWorkBodyBytes)) {
			t.Errorf("%s: 413 body should name the limit: %q", endpoint, we.Error)
		}
	}
	if after, _ := q.Status(); after != before {
		t.Fatalf("oversized bodies moved the queue:\nbefore %+v\nafter  %+v", before, after)
	}
}

type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}

// TestHTTPServerTimeouts: the production server carries connection
// deadlines, so a stalled peer cannot pin a connection forever.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := NewServer(nil, ServerOptions{}).httpServer()
	if hs.ReadTimeout != 2*time.Minute || hs.WriteTimeout != 2*time.Minute || hs.IdleTimeout != 5*time.Minute {
		t.Fatalf("deadlines: read %v write %v idle %v", hs.ReadTimeout, hs.WriteTimeout, hs.IdleTimeout)
	}
	if hs.ReadHeaderTimeout == 0 {
		t.Fatal("header read deadline must be set")
	}
}

// TestWorkAPIWithoutQueue: a plain cache server is not a coordinator;
// the work endpoints answer a typed 404 and the client surfaces it as
// a distinct error, not a retry loop.
func TestWorkAPIWithoutQueue(t *testing.T) {
	_, _, c := newRegistry(t)
	if _, err := c.ClaimWork("w"); err == nil || !strings.Contains(err.Error(), "not coordinating") {
		t.Fatalf("claim against a non-coordinator: %v", err)
	}
	if _, err := c.FetchWorkStatus(); err == nil || !strings.Contains(err.Error(), "not coordinating") {
		t.Fatalf("status against a non-coordinator: %v", err)
	}
	if _, err := c.HeartbeatWork("lease-1", nil); err == nil || !strings.Contains(err.Error(), "not coordinating") {
		t.Fatalf("heartbeat against a non-coordinator: %v", err)
	}
}
