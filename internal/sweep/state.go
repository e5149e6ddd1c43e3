package sweep

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"strings"
	"time"

	"dramtherm/internal/sim"
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
// into the run cache and the level-1 trace stores (keeping only records
// this engine's configuration produced; see replayState), and registers
// hooks so every freshly built run and trace record is appended as it
// completes — there is no shutdown flush to lose. When replay skipped
// any record, the log is compacted once before returning, so foreign
// records and legacy checkpoint frames are read on this open only. compactEvery > 0 starts a
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
	if e.skippedRuns.Load()+e.skippedTraces.Load()+e.skippedCheckpoints.Load() > 0 {
		if err := e.CompactState(); err != nil {
			l.Close()
			e.seglog = nil
			return err
		}
	}
	e.cache.OnInsert(func(k Key, v sim.MEMSpotResult) {
		e.appendRun(k, v)
	})
	e.sys.Store().SetOnBuild(func(r trace.Rates) { e.appendTrace(r, e.l1digest) })
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

// appendTrace frames one freshly built level-1 record, under its
// builder's digest, into the segment log, if one is enabled.
func (e *Engine) appendTrace(r trace.Rates, digest string) {
	if e.seglog == nil {
		return
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(traceRecord{Rates: r, Digest: digest}); err != nil {
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
// whose builder digest matches none of this engine's builders (a
// directory reused after a seed or parameter change). Level-1 records
// go to the store of the builder that made them: the Chapter 4
// system's or a testbed's. A checkpoint frame an older build wrote is
// skipped and counted unread. A skipped record is rebuilt on demand;
// EnableSegmentLog compacts it out of the log.
func (e *Engine) replayState(l *SegmentLog) error {
	for _, m := range testbeds {
		e.machineStore(m)
	}
	stores := e.level1Stores()
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
			st := stores[rec.Digest]
			if st == nil {
				e.skippedTraces.Add(1)
				break
			}
			st.Put(rec.Rates)
		case recordCheckpoint:
			e.skippedCheckpoints.Add(1)
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

// CompactState folds the entire warm state (run cache + level-1 trace
// stores) into one fresh snapshot segment, retiring the older segments.
// Requires EnableSegmentLog.
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
		for digest, st := range e.level1Stores() {
			st.Range(func(r trace.Rates) bool {
				var buf bytes.Buffer
				if err = gob.NewEncoder(&buf).Encode(traceRecord{Rates: r, Digest: digest}); err != nil {
					return false
				}
				err = emit(recordTrace, buf.Bytes())
				return err == nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// level1Stores returns every level-1 store by its builder's digest:
// the Chapter 4 system's and each testbed store created so far.
func (e *Engine) level1Stores() map[string]*trace.Store {
	e.smu.Lock()
	defer e.smu.Unlock()
	out := map[string]*trace.Store{e.l1digest: e.sys.Store()}
	for d, st := range e.stores {
		out[d] = st
	}
	return out
}

// Level1Records counts the level-1 records the engine holds across
// every store: the Chapter 4 system's and each testbed's.
func (e *Engine) Level1Records() int {
	n := 0
	for _, st := range e.level1Stores() {
		n += st.Len()
	}
	return n
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

// ownKey reports whether key was minted under this engine's
// ConfigDigest.
func (e *Engine) ownKey(key Key) bool { return strings.HasPrefix(string(key), e.digest+"|") }
