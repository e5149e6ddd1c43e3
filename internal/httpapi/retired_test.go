package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"dramtherm/internal/sim"
	"dramtherm/internal/sweep"
)

// TestHandoffRouteGone: POST /v1/handoff, the retired cache-replication
// ingest, is an unknown route. A line that an older coordinator would
// have sent is answered 404 and imports nothing: the spec still builds
// on its first request.
func TestHandoffRouteGone(t *testing.T) {
	ts, builds, eng := newTestServer(t, 1, 0, Config{})
	spec := sweep.Spec{Mix: "W1", Policy: "DTM-TS"}
	line, err := json.Marshal(map[string]any{
		"key":    string(eng.Key(spec)),
		"result": sim.MEMSpotResult{Seconds: 99, Completed: 4},
		"reason": "handoff",
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/handoff", "application/x-ndjson", bytes.NewReader(append(line, '\n')))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/handoff: status %d, want 404", resp.StatusCode)
	}
	if st := eng.Stats(); st.Entries != 0 {
		t.Fatalf("cache after POST /v1/handoff: %+v, want no entry", st)
	}
	postJSON(t, ts.URL+"/v1/exec", spec).Body.Close()
	if builds.Load() != 1 {
		t.Fatalf("exec after POST /v1/handoff made %d builds, want 1", builds.Load())
	}
}
