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
	// Digest is the sim.Level1 digest of the builder that produced
	// Rates. A record written before frames carried it decodes with an
	// empty digest, which matches no builder.
	Digest string
}

// EnableSegmentLog makes the engine's warm state durable under crashes:
// it opens (or creates) the append-only segment log in dir, replays it
// into the run cache and the level-1 trace store (keeping only records
// this engine's configuration produced; see replayState), and registers
// hooks so
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
	e.l1digest = e.sys.Level1Digest()
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
	e.sys.Store().SetOnBuild(e.appendTrace)
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

// appendTrace frames one freshly built level-1 record into the segment
// log.
func (e *Engine) appendTrace(r trace.Rates) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(traceRecord{Rates: r, Digest: e.l1digest}); err != nil {
		e.appendErrs.Add(1)
		return
	}
	if err := e.seglog.Append(recordTrace, buf.Bytes()); err != nil {
		e.appendErrs.Add(1)
	}
}

// replayState folds the log's records into the in-memory layers. Inserts
// go through Put, which does not re-trigger the append hooks. A record
// another configuration produced is skipped and counted, never served:
// a run record keyed under another ConfigDigest, or a level-1 record
// whose builder digest differs from this engine's (a directory reused
// after a seed or parameter change). A skipped record is rebuilt on
// demand and drops out at the next compaction.
func (e *Engine) replayState(l *SegmentLog) error {
	return l.Replay(func(kind byte, payload []byte) error {
		switch kind {
		case recordRun:
			var rec runRecord
			if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
				return fmt.Errorf("sweep: replaying run record: %w", err)
			}
			if !e.ownKey(rec.Key) {
				e.skippedRuns.Add(1)
				break
			}
			e.cache.Put(rec.Key, rec.Result)
		case recordTrace:
			var rec traceRecord
			if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
				return fmt.Errorf("sweep: replaying trace record: %w", err)
			}
			if rec.Digest != e.l1digest {
				e.skippedTraces.Add(1)
				break
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
			if err = gob.NewEncoder(&buf).Encode(traceRecord{Rates: r, Digest: e.l1digest}); err != nil {
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
	// SkippedRuns and SkippedTraces count the records replay dropped as
	// foreign: run records keyed under another ConfigDigest, and level-1
	// records built under another (or no) level-1 digest.
	SkippedRuns   int64 `json:"skipped_runs,omitempty"`
	SkippedTraces int64 `json:"skipped_traces,omitempty"`
}

// StateStats reports the segment log's shape; ok is false when no
// segment log is enabled.
func (e *Engine) StateStats() (StateStats, bool) {
	if e.seglog == nil {
		return StateStats{}, false
	}
	return StateStats{
		SegLogStats:   e.seglog.Stats(),
		Dir:           e.seglog.Dir(),
		AppendErrors:  e.appendErrs.Load(),
		SkippedRuns:   e.skippedRuns.Load(),
		SkippedTraces: e.skippedTraces.Load(),
	}, true
}

// ImportResult installs an externally produced result (a replica or a
// handed-off cache entry) under its canonical key, persisting it when a
// segment log is enabled. Keys minted under a different configuration
// digest are rejected — a replica from a mis-configured peer must not
// shadow this node's own results. Returns false for rejected or
// already-present keys (the import is idempotent).
func (e *Engine) ImportResult(key Key, res sim.MEMSpotResult) bool {
	if !e.ownKey(key) {
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

// ownKey reports whether key was minted under this engine's
// ConfigDigest.
func (e *Engine) ownKey(key Key) bool { return strings.HasPrefix(string(key), e.digest+"|") }

// Range iterates the completed run cache (see memo.Table.Range) — the export
// side of replication and handoff.
func (e *Engine) Range(fn func(Key, sim.MEMSpotResult) bool) { e.cache.Range(fn) }
