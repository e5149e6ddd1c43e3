package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"dramtherm/internal/sweep"
	"dramtherm/internal/sweep/remote"
)

// maxBatchBytes bounds the decoded batch request body; a shard is a list
// of small specs, so anything near this is a protocol error, not load.
const maxBatchBytes = 8 << 20

// handleExecBatch runs a whole shard of specs and streams per-spec
// outcomes back as NDJSON remote.BatchLines, in completion order — the
// endpoint the remote backend's batched dispatch talks to. Execution is
// bounded by the engine's worker pool (cache hits and joins still
// short-circuit), so one oversized shard cannot starve the node. A spec
// whose run fails deterministically produces an error line (terminal for
// that spec); node drain or client disconnect truncates the stream
// instead, which the coordinator reads as "fail the remainder over".
func (s *Server) handleExecBatch(w http.ResponseWriter, r *http.Request) {
	var req remote.BatchRequest
	if !decodeBody(w, r, maxBatchBytes, false, "batch", &req) {
		return
	}
	if len(req.Specs) == 0 {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, errors.New("empty batch: provide specs"))
		return
	}
	if len(req.Specs) > s.maxBatch {
		writeErr(w, http.StatusRequestEntityTooLarge, CodeTooLarge, fmt.Errorf("batch of %d specs exceeds limit %d", len(req.Specs), s.maxBatch))
		return
	}
	for i, sp := range req.Specs {
		if err := s.eng.Validate(sp); err != nil {
			writeErr(w, http.StatusBadRequest, CodeBadSpec, fmt.Errorf("spec %d: %w", i, err))
			return
		}
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeServerErr(w, r, fmt.Errorf("response writer %T cannot stream", w))
		return
	}
	ctx, cancel := mergeDone(r.Context(), s.base)
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// Lines interleave from worker goroutines; serialize writes and kill
	// the whole batch once the client is gone — its coordinator has
	// already re-planned the shard, so finishing it would be wasted work.
	var wmu sync.Mutex
	writeLine := func(line remote.BatchLine) {
		data, err := json.Marshal(line)
		if err != nil {
			s.log.Error("httpapi: encoding batch line failed", s.reqAttrs(r, "index", line.Index, "err", err.Error())...)
			cancel()
			return
		}
		wmu.Lock()
		defer wmu.Unlock()
		if _, err := w.Write(append(data, '\n')); err != nil {
			cancel()
			return
		}
		flusher.Flush()
	}

	sem := make(chan struct{}, s.eng.Workers())
	var wg sync.WaitGroup
	for i, sp := range req.Specs {
		wg.Add(1)
		go func(i int, sp sweep.Spec) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				return
			}
			res, info, err := s.eng.Run(ctx, sp)
			if err != nil {
				if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					// Draining (or the client hung up): truncate the stream
					// so the coordinator fails the remainder over instead of
					// treating the shard as terminally failed.
					cancel()
					return
				}
				s.log.Warn("httpapi: batch spec failed", s.reqAttrs(r, "index", i, "spec", sp.String(), "err", err.Error())...)
				writeLine(remote.BatchLine{Index: i, Key: string(s.eng.Key(sp)), Error: err.Error()})
				return
			}
			writeLine(remote.BatchLine{Index: i, Key: string(s.eng.Key(sp)), Outcome: info.Outcome.String(), Result: &res})
		}(i, sp)
	}
	wg.Wait()
}
