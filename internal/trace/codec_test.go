package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// sampleRecords covers the encoding's edge shapes: +Inf bandwidth caps,
// MemOff points, empty combinations, multi-app maps.
func sampleRecords() []Rates {
	return []Rates{
		{
			Point:          DesignPoint{Apps: "mcf|mcf|swim", FreqGHz: 3.2, BWCapGBps: math.Inf(1)},
			PerApp:         map[string]AppRates{"mcf": {InstrPerSec: 1e9, IPCRef: 0.4, ReadGBps: 2, WriteGBps: 1, L2MissPerSec: 1e7, L2AccessPerSec: 1e8, MemBoundFrac: 0.7}, "swim": {InstrPerSec: 2e9}},
			TotalReadGBps:  6.5,
			TotalWriteGBps: 2.25,
			MeanLatencyNS:  183.5,
		},
		{
			Point:  DesignPoint{Apps: "art", FreqGHz: 2.0, BWCapGBps: 4.2},
			PerApp: map[string]AppRates{"art": {InstrPerSec: 5e8, MemBoundFrac: 0.9}},
		},
		{
			Point:  DesignPoint{Apps: "", FreqGHz: 0, BWCapGBps: math.Inf(1), MemOff: true},
			PerApp: map[string]AppRates{},
		},
	}
}

// encodeStream frames records the way Store.Save does.
func encodeStream(recs []Rates) []byte {
	buf := []byte(codecMagic)
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	return buf
}

// ratesEqual compares two records bit-for-bit (NaN-safe: compares
// re-encoded bytes, which preserve float bit patterns).
func ratesEqual(a, b Rates) bool {
	return bytes.Equal(appendRecord(nil, a), appendRecord(nil, b))
}

// TestCodecRoundTrip saves a store and reloads it through chunk sizes
// small enough that every record spans multiple chunks.
func TestCodecRoundTrip(t *testing.T) {
	src := NewStore(nil)
	for _, r := range sampleRecords() {
		src.Put(r)
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), codecMagic) {
		t.Fatal("Save did not write the framed magic")
	}
	// Determinism: a second Save produces identical bytes.
	var buf2 bytes.Buffer
	if err := src.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("Save is not deterministic")
	}

	old := loadChunkBytes
	loadChunkBytes = 7 // force records to span many chunk boundaries
	defer func() { loadChunkBytes = old }()

	dst := NewStore(nil)
	if err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != src.Len() {
		t.Fatalf("loaded %d records, want %d", dst.Len(), src.Len())
	}
	for _, want := range sampleRecords() {
		got, err := dst.Get(want.Point)
		if err != nil {
			t.Fatal(err)
		}
		if want.Point.MemOff {
			continue // Get short-circuits MemOff to Zero by design
		}
		if !ratesEqual(got, want) {
			t.Fatalf("round trip changed %v:\n got %+v\nwant %+v", want.Point, got, want)
		}
	}
}

// TestChunkDecoderSingleBytes drives the decoder one byte at a time —
// every boundary lands inside the magic, a length prefix, or a record.
func TestChunkDecoderSingleBytes(t *testing.T) {
	stream := encodeStream(sampleRecords())
	var dec ChunkDecoder
	var got []Rates
	var err error
	for i := range stream {
		got, err = dec.Feed(stream[i:i+1], got)
		if err != nil {
			t.Fatalf("byte %d: %v", i, err)
		}
	}
	if err := dec.Finish(); err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !ratesEqual(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

// TestChunkDecoderErrors exercises the failure modes: bad magic,
// oversized length prefixes, corrupt payloads, truncated tails.
func TestChunkDecoderErrors(t *testing.T) {
	t.Run("bad magic", func(t *testing.T) {
		var dec ChunkDecoder
		if _, err := dec.Feed([]byte("NOTDTMTRACE"), nil); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
	t.Run("oversized length", func(t *testing.T) {
		stream := append([]byte(codecMagic), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
		var dec ChunkDecoder
		if _, err := dec.Feed(stream, nil); err == nil {
			t.Fatal("oversized length accepted")
		}
	})
	t.Run("corrupt payload", func(t *testing.T) {
		stream := encodeStream(sampleRecords()[:1])
		stream[len(codecMagic)] += 3 // lie about the record length
		var dec ChunkDecoder
		if _, err := dec.Feed(stream, nil); err == nil {
			// A longer length may leave the tail pending instead; then
			// Finish must fail.
			if err := dec.Finish(); err == nil {
				t.Fatal("corrupt length accepted")
			}
		}
	})
	t.Run("truncated tail", func(t *testing.T) {
		stream := encodeStream(sampleRecords())
		var dec ChunkDecoder
		if _, err := dec.Feed(stream[:len(stream)-3], nil); err != nil {
			t.Fatalf("truncation should pend, not error: %v", err)
		}
		if err := dec.Finish(); err == nil {
			t.Fatal("truncated stream passed Finish")
		}
		if dec.Buffered() == 0 {
			t.Fatal("truncated bytes not buffered")
		}
	})
	t.Run("empty stream", func(t *testing.T) {
		var dec ChunkDecoder
		if err := dec.Finish(); err == nil {
			t.Fatal("empty stream passed Finish")
		}
	})
}
