package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dramtherm/internal/dtm"
	"dramtherm/internal/sim"
	"dramtherm/internal/sweep/prefix"
)

// seedGroupRecord is a small valid record: three neutral decisions with
// two zero-state checkpoints, digests computed the real way.
func seedGroupRecord() prefix.GroupRecord {
	var st sim.MEMSpotState
	neutral := dtm.Action{BWCapGBps: dtm.NoCap(), ActiveCores: 4}
	rec := prefix.GroupRecord{
		Key: "seedcfg|W1|*||isolated",
		Decisions: []prefix.DecisionRecord{
			{In: dtm.Input{AMB: 100.5, DRAM: 74, Now: 0.01, Dt: 0.01}, Act: neutral},
			{In: dtm.Input{AMB: 100.6, DRAM: 74.1, Now: 0.02, Dt: 0.01}, Act: neutral},
			{In: dtm.Input{AMB: 100.7, DRAM: 74.2, Now: 0.03, Dt: 0.01}, Act: neutral},
		},
		Checkpoints: []prefix.CheckpointRecord{
			{Decision: 1, StateDigest: st.Digest(), State: st},
			{Decision: 2, StateDigest: st.Digest(), State: st},
		},
	}
	rec.TraceDigest = prefix.TraceDigest(rec.Key, rec.Decisions)
	return rec
}

// FuzzCheckpointDecode: arbitrary bytes must never panic the checkpoint
// decoder, anything it accepts must survive an encode/decode round trip
// unchanged, and an accepted record framed into a segment log must
// replay byte-identically. Torn and corrupt frames are exercised by
// mangling the accepted encoding.
func FuzzCheckpointDecode(f *testing.F) {
	valid, err := encodeCheckpointRecord(seedGroupRecord())
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeCheckpointRecord(payload)
		if err != nil {
			return // rejected without panicking: the contract for garbage
		}
		enc, err := encodeCheckpointRecord(rec)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		rec2, err := decodeCheckpointRecord(enc)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !reflect.DeepEqual(rec, rec2) {
			t.Fatal("record changed across encode/decode round trip")
		}

		// Through the segment log and back.
		dir := t.TempDir()
		l, err := OpenSegmentLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(recordCheckpoint, enc); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := OpenSegmentLog(dir)
		if err != nil {
			t.Fatalf("reopening log with checkpoint frame: %v", err)
		}
		defer reopened.Close()
		var got [][]byte
		if err := reopened.Replay(func(kind byte, p []byte) error {
			if kind == recordCheckpoint {
				got = append(got, append([]byte(nil), p...))
			}
			return nil
		}); err != nil {
			t.Fatalf("replay: %v", err)
		}
		if len(got) != 1 || !bytes.Equal(got[0], enc) {
			t.Fatalf("checkpoint frame did not replay byte-identically (%d frames)", len(got))
		}
	})
}

// TestCheckedInRecordValidates: the checked-in valid fuzz seed, encoded
// by an earlier build, still decodes and validates, so checkpoint
// records written by older binaries stay usable.
func TestCheckedInRecordValidates(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzCheckpointDecode", "seed_valid_record"))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(data)), "go test fuzz v1\n[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("not a fuzz corpus file: %q", data)
	}
	payload, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := decodeCheckpointRecord([]byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Decisions) == 0 || len(rec.Checkpoints) == 0 {
		t.Fatalf("seed record holds %d decisions and %d checkpoints", len(rec.Decisions), len(rec.Checkpoints))
	}
}

// TestSegmentLogDropsMangledCheckpointFrames: a torn tail or a flipped
// payload byte must cost exactly the damaged frame — replay keeps every
// frame before it, reports no error, and does not panic.
func TestSegmentLogDropsMangledCheckpointFrames(t *testing.T) {
	valid, err := encodeCheckpointRecord(seedGroupRecord())
	if err != nil {
		t.Fatal(err)
	}
	write := func(t *testing.T, dir string) string {
		l, err := OpenSegmentLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := l.Append(recordCheckpoint, valid); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		seg, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil || len(seg) == 0 {
			t.Fatalf("no segment files: %v", err)
		}
		return seg[0]
	}
	replayed := func(t *testing.T, dir string) int {
		l, err := OpenSegmentLog(dir)
		if err != nil {
			t.Fatalf("mangled log failed to open: %v", err)
		}
		defer l.Close()
		n := 0
		if err := l.Replay(func(kind byte, p []byte) error {
			if kind == recordCheckpoint {
				n++
			}
			return nil
		}); err != nil {
			t.Fatalf("mangled log failed to replay: %v", err)
		}
		return n
	}

	t.Run("torn tail", func(t *testing.T) {
		dir := t.TempDir()
		seg := write(t, dir)
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(seg, fi.Size()-int64(len(valid)/2)); err != nil {
			t.Fatal(err)
		}
		if n := replayed(t, dir); n != 1 {
			t.Fatalf("replayed %d checkpoint frames after tear, want 1", n)
		}
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		dir := t.TempDir()
		seg := write(t, dir)
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		// Flip a byte inside the second frame's payload: the CRC catches it.
		data[len(data)-len(valid)/2] ^= 0xff
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if n := replayed(t, dir); n != 1 {
			t.Fatalf("replayed %d checkpoint frames after corruption, want 1", n)
		}
	})
}
