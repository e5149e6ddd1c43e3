package httpapi

import (
	"encoding/json"
	"net/http"
)

// Every /v1 error response is one envelope:
//
//	{"error":{"code":"bad_spec","message":"core: unknown policy \"X\""}}
//
// The code is a stable machine-readable discriminator (clients switch
// on it; the set below is the contract documented in docs/api.md), the
// message is human-readable and may change wording freely. The 4xx/5xx
// hygiene split is unchanged: 4xx messages describe the client's own
// input verbatim, 5xx messages are generic and the detail goes to the
// server log.
const (
	// CodeBadRequest: the request body or a parameter does not parse.
	CodeBadRequest = "bad_request"
	// CodeBadSpec: a spec failed validation (unknown mix/policy/cooling/
	// model, partial limits, bad instr_scale).
	CodeBadSpec = "bad_spec"
	// CodeBadSearch: the search block has an invalid rung ladder or eta.
	CodeBadSearch = "bad_search"
	// CodeJobNotFound: no job with the given id.
	CodeJobNotFound = "job_not_found"
	// CodeTooLarge: the batch or body exceeds a bound.
	CodeTooLarge = "too_large"
	// CodeRegistryFull: the job registry cannot admit another running
	// job; retry later.
	CodeRegistryFull = "registry_full"
	// CodeNotEnabled: the endpoint exists but is switched off on this
	// node (e.g. gossip on an embedded server built without a node).
	CodeNotEnabled = "not_enabled"
	// CodeNodeDraining: the node is shutting down (or the caller hung
	// up); the work is retryable elsewhere.
	CodeNodeDraining = "node_draining"
	// CodeSpecFailed: the simulation itself failed for this spec;
	// terminal, do not retry on another peer.
	CodeSpecFailed = "spec_failed"
	// CodeInternal: an unexpected server-side failure; detail is in the
	// server log under the request id.
	CodeInternal = "internal"
)

// apiError is the envelope payload.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorEnvelope is the uniform /v1 error body.
type errorEnvelope struct {
	Error apiError `json:"error"`
}

// writeErr reports one error in the envelope. For 4xx codes err's text
// is the client's own input reflected back; 5xx callers must pass a
// sanitized error (see writeServerErr).
func writeErr(w http.ResponseWriter, status int, code string, err error) {
	body, _ := json.Marshal(errorEnvelope{Error: apiError{Code: code, Message: err.Error()}}) // strings always encode
	writeBody(w, status, body, []byte("\n"))
}
