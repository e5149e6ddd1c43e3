package remote

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestErrorBody: a 4xx reply's message comes from the structured error
// envelope; any other body reports the status line.
func TestErrorBody(t *testing.T) {
	const status = "422 Unprocessable Entity"
	for _, tc := range []struct {
		name, body, want string
	}{
		{"envelope", `{"error":{"code":"spec_failed","message":"boom"}}`, "boom"},
		{"envelope without message", `{"error":{"code":"spec_failed"}}`, status},
		{"bare error string", `{"error":"boom"}`, status},
		{"non-JSON body", "upstream exploded", status},
		{"empty body", "", status},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := &http.Response{Status: status, Body: io.NopCloser(strings.NewReader(tc.body))}
			if got := errorBody(resp); got != tc.want {
				t.Errorf("errorBody(%q) = %q, want %q", tc.body, got, tc.want)
			}
		})
	}
}
