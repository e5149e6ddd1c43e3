package sweep

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"strings"
	"time"

	"dramtherm/internal/sim"
	"dramtherm/internal/sweep/prefix"
	"dramtherm/internal/trace"
)

// runRecord is the gob payload of one recordRun frame: a completed
// level-2 run under its canonical cache key.
type runRecord struct {
	Key    Key
	Result sim.MEMSpotResult
}

// traceRecord is the gob payload of one recordTrace frame. BWCapGBps may
// be +Inf; gob round-trips IEEE bit patterns, so no sentinel is needed.
type traceRecord struct {
	Rates trace.Rates
}

// EnableSegmentLog makes the engine's warm state durable under crashes:
// it opens (or creates) the append-only segment log in dir, replays it
// into the run cache and the level-1 trace store, and registers hooks so
// every freshly built run and trace record is appended as it completes —
// there is no shutdown flush to lose. compactEvery > 0 starts a
// background compactor folding the log into one snapshot segment on that
// period (stopped by Close); <= 0 leaves compaction to CompactState
// calls. Call once, before the engine is shared across goroutines.
func (e *Engine) EnableSegmentLog(dir string, compactEvery time.Duration) error {
	if e.seglog != nil {
		return errors.New("sweep: segment log already enabled")
	}
	l, err := OpenSegmentLog(dir)
	if err != nil {
		return err
	}
	if err := e.replayState(l); err != nil {
		l.Close()
		return err
	}
	e.seglog = l
	e.cache.OnInsert(func(k Key, v sim.MEMSpotResult) {
		e.appendRun(k, v)
	})
	if e.prefix != nil {
		e.prefix.OnGroupComplete(e.appendCheckpoint)
	}
	e.sys.Store().SetOnBuild(func(r trace.Rates) {
		var buf bytes.Buffer
		if gob.NewEncoder(&buf).Encode(traceRecord{Rates: r}) == nil {
			if e.seglog.Append(recordTrace, buf.Bytes()) != nil {
				e.appendErrs.Add(1)
			}
		} else {
			e.appendErrs.Add(1)
		}
	})
	if compactEvery > 0 {
		e.compactStop = make(chan struct{})
		e.compactDone = make(chan struct{})
		go e.compactLoop(compactEvery)
	}
	return nil
}

// appendRun frames one completed run into the segment log.
func (e *Engine) appendRun(k Key, v sim.MEMSpotResult) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(runRecord{Key: k, Result: v}); err != nil {
		e.appendErrs.Add(1)
		return
	}
	if err := e.seglog.Append(recordRun, buf.Bytes()); err != nil {
		e.appendErrs.Add(1)
	}
}

// replayState folds every log record into the in-memory layers. Inserts
// go through Put, which does not re-trigger the append hooks.
func (e *Engine) replayState(l *SegmentLog) error {
	return l.Replay(func(kind byte, payload []byte) error {
		switch kind {
		case recordRun:
			var rec runRecord
			if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
				return fmt.Errorf("sweep: replaying run record: %w", err)
			}
			e.cache.Put(rec.Key, rec.Result)
		case recordTrace:
			var rec traceRecord
			if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
				return fmt.Errorf("sweep: replaying trace record: %w", err)
			}
			e.sys.Store().Put(rec.Rates)
		case recordCheckpoint:
			// Checkpoints are droppable: a record that no longer decodes
			// or validates costs one cold replay, not a failed startup.
			if e.prefix == nil {
				break
			}
			if rec, err := decodeCheckpointRecord(payload); err == nil {
				e.prefix.Import(rec)
			}
		}
		return nil
	})
}

// compactLoop periodically folds the log; only runs between ticks that
// saw fresh appends, so an idle engine does not churn disk.
func (e *Engine) compactLoop(every time.Duration) {
	defer close(e.compactDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-e.compactStop:
			return
		case <-t.C:
			if st := e.seglog.Stats(); st.Appends == 0 && st.Segments <= 1 {
				continue
			}
			if err := e.CompactState(); err != nil {
				e.appendErrs.Add(1)
			}
		}
	}
}

// CompactState folds the entire warm state (run cache + trace store)
// into one fresh snapshot segment, retiring the older segments. Requires
// EnableSegmentLog.
func (e *Engine) CompactState() error {
	if e.seglog == nil {
		return errors.New("sweep: segment log not enabled")
	}
	return e.seglog.Compact(func(emit func(kind byte, payload []byte) error) error {
		var err error
		e.cache.Range(func(k Key, v sim.MEMSpotResult) bool {
			var buf bytes.Buffer
			if err = gob.NewEncoder(&buf).Encode(runRecord{Key: k, Result: v}); err != nil {
				return false
			}
			err = emit(recordRun, buf.Bytes())
			return err == nil
		})
		if err != nil {
			return err
		}
		e.sys.Store().Range(func(r trace.Rates) bool {
			var buf bytes.Buffer
			if err = gob.NewEncoder(&buf).Encode(traceRecord{Rates: r}); err != nil {
				return false
			}
			err = emit(recordTrace, buf.Bytes())
			return err == nil
		})
		if err != nil {
			return err
		}
		if e.prefix != nil {
			e.prefix.Export(func(rec prefix.GroupRecord) bool {
				payload, encErr := encodeCheckpointRecord(rec)
				if encErr != nil {
					err = encErr
					return false
				}
				if len(payload) > maxCheckpointRecordBytes {
					return true // skip, as appendCheckpoint would
				}
				err = emit(recordCheckpoint, payload)
				return err == nil
			})
		}
		return err
	})
}

// Close stops the background compactor and closes the segment log. Safe
// to call on engines without one, and more than once.
func (e *Engine) Close() error {
	if e.compactStop != nil {
		close(e.compactStop)
		<-e.compactDone
		e.compactStop = nil
	}
	if e.seglog == nil {
		return nil
	}
	return e.seglog.Close()
}

// StateStats describes the durable-state layer for healthz.
type StateStats struct {
	SegLogStats
	// Dir is the segment-log directory.
	Dir string `json:"dir"`
	// AppendErrors counts hook-side encode/append failures — state that
	// stayed warm in memory but did not persist.
	AppendErrors int64 `json:"append_errors,omitempty"`
}

// StateStats reports the segment log's shape; ok is false when no
// segment log is enabled.
func (e *Engine) StateStats() (StateStats, bool) {
	if e.seglog == nil {
		return StateStats{}, false
	}
	return StateStats{
		SegLogStats:  e.seglog.Stats(),
		Dir:          e.seglog.Dir(),
		AppendErrors: e.appendErrs.Load(),
	}, true
}

// ImportResult installs an externally produced result (a replica or a
// handed-off cache entry) under its canonical key, persisting it when a
// segment log is enabled. Keys minted under a different configuration
// digest are rejected — a replica from a mis-configured peer must not
// shadow this node's own results. Returns false for rejected or
// already-present keys (the import is idempotent).
func (e *Engine) ImportResult(key Key, res sim.MEMSpotResult) bool {
	if !strings.HasPrefix(string(key), e.digest+"|") {
		return false
	}
	if !e.cache.Add(key, res) {
		return false
	}
	if e.seglog != nil {
		e.appendRun(key, res)
	}
	return true
}

// HasResult reports whether key is already cached.
func (e *Engine) HasResult(key Key) bool {
	_, ok := e.cache.Get(key)
	return ok
}

// Range iterates the completed run cache (see memo.Table.Range) — the export
// side of replication and handoff.
func (e *Engine) Range(fn func(Key, sim.MEMSpotResult) bool) { e.cache.Range(fn) }
