package sweep

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The versioned persisted-state wire format. Every segment file starts
// with this magic + version header, so a state file written by a future
// incompatible format fails loudly instead of silently corrupting the
// warm cache.
//
// Segment file layout:
//
//	[8]byte  magic "DTMSTATE"
//	uint32   version (little endian)
//	records: repeated frames of
//	  byte    kind (recordRun | recordTrace | recordCheckpoint)
//	  uint32  payload length (little endian)
//	  uint32  CRC-32 (IEEE) of the payload
//	  []byte  payload
//
// Frames are self-delimiting and checksummed, so a crash mid-append
// leaves at most one torn frame at the tail; replay truncates it and the
// log is clean again. Later records for the same key win, so compaction
// (rewriting the live snapshot as one fresh segment) is a pure
// space/startup-time optimization, never a correctness step. This build
// writes only run and trace frames; checkpoint frames come only from
// logs older builds wrote, and compaction drops them.
var stateMagic = [8]byte{'D', 'T', 'M', 'S', 'T', 'A', 'T', 'E'}

// StateVersion is the current persisted-state wire-format version.
// Readers reject higher versions loudly.
const StateVersion = 1

// Record kinds.
const (
	// recordRun is one completed run-cache entry: payload is a gob
	// runRecord (canonical key + gob-encoded result).
	recordRun byte = 1
	// recordTrace is one level-1 trace-store record: payload is a gob
	// trace.Rates.
	recordTrace byte = 2
	// recordCheckpoint is one prefix-sharing group record (decision log
	// + strided simulator checkpoints) as older builds persisted it.
	// Nothing writes it now. It stays a known kind so replay skips the
	// frame unread and keeps the records after it (an unknown kind
	// would end the segment's replay there).
	recordCheckpoint byte = 3
)

// maxRecordBytes bounds one frame's payload; anything larger is
// corruption, not data (a full result with traces is a few MB at most).
const maxRecordBytes = 64 << 20

// segMaxBytes rotates the active segment when it grows past this, so
// compaction has file-granular units to retire.
const segMaxBytes = 64 << 20

const (
	segPrefix = "seg-"
	segSuffix = ".dtl"
	segTmp    = ".tmp"
)

// ErrStateVersion marks a magic/version mismatch: the file is a
// dramtherm state artifact from an incompatible (newer) format, and
// loading it would corrupt the warm cache. Callers must fail loudly.
var ErrStateVersion = errors.New("sweep: incompatible state version")

// SegmentLog is an append-only, crash-safe log of warm-state records for
// one node's shard of the key space. Records are appended as runs
// complete (no shutdown flush to lose), replayed on start, and folded
// together by periodic compaction. It is safe for concurrent use.
type SegmentLog struct {
	dir string

	mu      sync.Mutex
	active  *os.File // current append target
	seq     int      // active segment sequence number
	size    int64    // active segment size
	appends int64    // frames appended since open/compact
	closed  bool

	truncated int64 // torn bytes dropped by replays (observability)
	lost      int64 // unreadable mid-log bytes skipped by replays
}

// segPath names segment n in dir.
func segPath(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%06d%s", segPrefix, n, segSuffix))
}

// segSeq parses a segment file name, returning -1 for foreign files.
func segSeq(name string) int {
	s, ok := strings.CutPrefix(name, segPrefix)
	if !ok {
		return -1
	}
	s, ok = strings.CutSuffix(s, segSuffix)
	if !ok {
		return -1
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return -1
	}
	return n
}

// OpenSegmentLog opens (creating if needed) the segment log in dir. The
// caller replays it with Replay before appending, so recovery truncation
// and the append offset agree.
func OpenSegmentLog(dir string) (*SegmentLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: segment log: %w", err)
	}
	l := &SegmentLog{dir: dir}
	l.cleanTmp()
	seqs, err := l.segments()
	if err != nil {
		return nil, err
	}
	if len(seqs) == 0 {
		if err := l.rotateLocked(1); err != nil {
			return nil, err
		}
		return l, nil
	}
	// Adopt the newest segment as the append target; Replay will truncate
	// any torn tail before the first Append lands.
	seq := seqs[len(seqs)-1]
	f, err := os.OpenFile(segPath(dir, seq), os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: segment log: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: segment log: %w", err)
	}
	if st.Size() == 0 {
		// A crash between create and header write: re-stamp the header.
		if err := writeSegHeader(f); err != nil {
			f.Close()
			return nil, err
		}
		st, _ = f.Stat()
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: segment log: %w", err)
	}
	l.active, l.seq, l.size = f, seq, st.Size()
	return l, nil
}

// segments lists existing segment sequence numbers, ascending.
func (l *SegmentLog) segments() ([]int, error) {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("sweep: segment log: %w", err)
	}
	var seqs []int
	for _, e := range ents {
		if n := segSeq(e.Name()); n >= 0 {
			seqs = append(seqs, n)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// cleanTmp removes compaction temporaries a crash left behind. Only
// called from OpenSegmentLog — a live Compact owns its own tmp file.
func (l *SegmentLog) cleanTmp() {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), segTmp) {
			os.Remove(filepath.Join(l.dir, e.Name())) //nolint:errcheck // best-effort cleanup
		}
	}
}

// writeSegHeader stamps the magic + version header on a fresh segment.
func writeSegHeader(w io.Writer) error {
	var hdr [12]byte
	copy(hdr[:8], stateMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], StateVersion)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("sweep: segment log: %w", err)
	}
	return nil
}

// readSegHeader validates a segment's header, returning its version.
func readSegHeader(r io.Reader) (uint32, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("sweep: segment header: %w", err)
	}
	if [8]byte(hdr[:8]) != stateMagic {
		return 0, fmt.Errorf("sweep: not a dramtherm state segment (bad magic %q)", hdr[:8])
	}
	v := binary.LittleEndian.Uint32(hdr[8:])
	if v > StateVersion {
		return v, fmt.Errorf("%w: segment is v%d, this build reads up to v%d", ErrStateVersion, v, StateVersion)
	}
	return v, nil
}

// rotateLocked closes the active segment (if any) and opens segment seq
// as the fresh append target. Callers hold l.mu (or have exclusive
// access during construction).
func (l *SegmentLog) rotateLocked(seq int) error {
	if l.active != nil {
		l.active.Sync()  //nolint:errcheck // durability is best-effort per segment
		l.active.Close() //nolint:errcheck
		l.active = nil
	}
	f, err := os.OpenFile(segPath(l.dir, seq), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("sweep: segment log: %w", err)
	}
	if err := writeSegHeader(f); err != nil {
		f.Close()
		return err
	}
	l.active, l.seq, l.size = f, seq, 12
	return nil
}

// encodeFrame frames one record: kind, payload length, payload CRC,
// payload.
func encodeFrame(kind byte, payload []byte) []byte {
	frame := make([]byte, 9+len(payload))
	frame[0] = kind
	binary.LittleEndian.PutUint32(frame[1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[5:], crc32.ChecksumIEEE(payload))
	copy(frame[9:], payload)
	return frame
}

// Append writes one framed record to the active segment, rotating first
// when it is over the size bound. Safe for concurrent use.
func (l *SegmentLog) Append(kind byte, payload []byte) error {
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("sweep: segment record of %d bytes exceeds %d", len(payload), maxRecordBytes)
	}
	frame := encodeFrame(kind, payload)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("sweep: segment log is closed")
	}
	if l.size+int64(len(frame)) > segMaxBytes && l.size > 12 {
		if err := l.rotateLocked(l.seq + 1); err != nil {
			return err
		}
	}
	if _, err := l.active.Write(frame); err != nil {
		return fmt.Errorf("sweep: segment append: %w", err)
	}
	l.size += int64(len(frame))
	l.appends++
	return nil
}

// Replay reads every segment in sequence order, invoking fn per record.
// A torn frame at the tail of the active segment (a crash mid-append) is
// truncated away so appends resume cleanly; an unreadable frame earlier
// in the log ends that segment's replay (framing is lost beyond it) and
// the remaining bytes are counted as lost. fn errors abort the replay.
func (l *SegmentLog) Replay(fn func(kind byte, payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	seqs, err := l.segments()
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		path := segPath(l.dir, seq)
		var (
			f   *os.File
			err error
		)
		if seq == l.seq && l.active != nil {
			f = l.active
			if _, err := f.Seek(0, io.SeekStart); err != nil {
				return fmt.Errorf("sweep: segment replay: %w", err)
			}
		} else if f, err = os.Open(path); err != nil {
			return fmt.Errorf("sweep: segment replay: %w", err)
		}
		good, err := replaySegment(f, fn)
		if seq == l.seq && l.active != nil {
			if err == nil && good < l.size {
				// Torn tail on the append target: truncate to the last good
				// frame so the next Append lands on a clean boundary.
				if terr := f.Truncate(good); terr != nil {
					return fmt.Errorf("sweep: truncating torn segment: %w", terr)
				}
				l.truncated += l.size - good
				l.size = good
			}
			if _, serr := f.Seek(0, io.SeekEnd); serr != nil && err == nil {
				err = serr
			}
		} else {
			st, _ := f.Stat()
			if err == nil && st != nil && good < st.Size() {
				l.lost += st.Size() - good
			}
			f.Close()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// replaySegment reads one segment, returning the offset of the last
// fully valid frame. Torn or corrupt frames end the scan without error;
// header violations and fn errors are returned.
func replaySegment(f *os.File, fn func(kind byte, payload []byte) error) (good int64, err error) {
	r := io.Reader(f)
	if _, err := readSegHeader(r); err != nil {
		return 0, err
	}
	good = 12
	var hdr [9]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return good, nil // clean EOF or torn frame header
		}
		kind := hdr[0]
		n := binary.LittleEndian.Uint32(hdr[1:])
		sum := binary.LittleEndian.Uint32(hdr[5:])
		if n > maxRecordBytes || (kind != recordRun && kind != recordTrace && kind != recordCheckpoint) {
			return good, nil // corrupt frame: framing is gone past here
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return good, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return good, nil // bit rot or torn overwrite
		}
		if err := fn(kind, payload); err != nil {
			return good, err
		}
		good += int64(9 + n)
	}
}

// Compact folds the live state into one fresh segment and retires every
// older one. snapshot must emit the current record set through emit;
// appends racing the snapshot land in the post-rotation active segment
// and survive. Crash-safe: the compacted segment is written to a
// temporary file and renamed into place only after the retired segments
// are gone — replay order (later records win) absorbs every intermediate
// state.
func (l *SegmentLog) Compact(snapshot func(emit func(kind byte, payload []byte) error) error) error {
	// Rotate first so the snapshot covers everything in segments <= old
	// seq, then write the snapshot into the old seq's slot.
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errors.New("sweep: segment log is closed")
	}
	old := l.seq
	if err := l.rotateLocked(l.seq + 1); err != nil {
		l.mu.Unlock()
		return err
	}
	l.appends = 0
	l.mu.Unlock()

	tmp := segPath(l.dir, old) + segTmp
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("sweep: compact: %w", err)
	}
	defer os.Remove(tmp) //nolint:errcheck // no-op after the rename
	if err := writeSegHeader(f); err != nil {
		f.Close()
		return err
	}
	emit := func(kind byte, payload []byte) error {
		_, err := f.Write(encodeFrame(kind, payload))
		return err
	}
	if err := snapshot(emit); err != nil {
		f.Close()
		return fmt.Errorf("sweep: compact: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("sweep: compact: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("sweep: compact: %w", err)
	}
	// Retire the superseded segments, then land the snapshot in the
	// newest retired slot. A crash between the removes and the rename
	// only costs the compaction (the active segment plus the snapshot's
	// sources are disjoint record sets under last-wins replay).
	seqs, err := l.segments()
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		if seq <= old {
			if err := os.Remove(segPath(l.dir, seq)); err != nil {
				return fmt.Errorf("sweep: compact: %w", err)
			}
		}
	}
	if err := os.Rename(tmp, segPath(l.dir, old)); err != nil {
		return fmt.Errorf("sweep: compact: %w", err)
	}
	return nil
}

// SegLogStats snapshots the log for healthz and metrics.
type SegLogStats struct {
	// Segments is the on-disk segment-file count.
	Segments int `json:"segments"`
	// Bytes is the total on-disk size of all segments.
	Bytes int64 `json:"bytes"`
	// Appends counts frames appended since open or the last compaction.
	Appends int64 `json:"appends"`
	// TruncatedBytes counts torn tail bytes dropped by replay.
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
	// LostBytes counts unreadable mid-log bytes skipped by replay.
	LostBytes int64 `json:"lost_bytes,omitempty"`
}

// Stats reports the log's current shape.
func (l *SegmentLog) Stats() SegLogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := SegLogStats{Appends: l.appends, TruncatedBytes: l.truncated, LostBytes: l.lost}
	seqs, err := l.segments()
	if err != nil {
		return out
	}
	out.Segments = len(seqs)
	for _, seq := range seqs {
		if st, err := os.Stat(segPath(l.dir, seq)); err == nil {
			out.Bytes += st.Size()
		}
	}
	return out
}

// Dir returns the log directory.
func (l *SegmentLog) Dir() string { return l.dir }

// Close syncs and closes the active segment. Further Appends fail.
func (l *SegmentLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.active == nil {
		return nil
	}
	l.active.Sync() //nolint:errcheck // close still proceeds
	err := l.active.Close()
	l.active = nil
	return err
}
