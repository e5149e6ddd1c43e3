// Framed binary trace codec: an 8-byte magic followed by
// length-prefixed records, so a reader can decode in fixed-size chunks
// and insert each batch as it completes instead of materializing the
// whole trace set first. ChunkDecoder accepts arbitrary chunk
// boundaries, including boundaries in the middle of a record, a length
// prefix, or the magic itself.
package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// codecMagic identifies a framed trace stream (8 bytes, versioned).
const codecMagic = "DTMTRC1\n"

// maxRecordBytes bounds one framed record. A record holds a handful of
// floats per application plus the combination key; real records are a
// few hundred bytes, so anything near the cap is a corrupt or truncated
// length prefix and is rejected before allocating.
const maxRecordBytes = 1 << 20

// appendRecord frames one Rates record onto dst: uvarint payload length,
// then the payload. Map entries are written in sorted name order so the
// encoding of a record is deterministic.
func appendRecord(dst []byte, r Rates) []byte {
	payload := appendPayload(nil, r)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

func appendPayload(dst []byte, r Rates) []byte {
	dst = appendString(dst, r.Point.Apps)
	dst = appendFloat(dst, r.Point.FreqGHz)
	dst = appendFloat(dst, r.Point.BWCapGBps) // IEEE 754 carries +Inf as-is
	if r.Point.MemOff {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = appendFloat(dst, r.TotalReadGBps)
	dst = appendFloat(dst, r.TotalWriteGBps)
	dst = appendFloat(dst, r.MeanLatencyNS)
	names := make([]string, 0, len(r.PerApp))
	for n := range r.PerApp {
		names = append(names, n)
	}
	sort.Strings(names)
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, n := range names {
		a := r.PerApp[n]
		dst = appendString(dst, n)
		dst = appendFloat(dst, a.InstrPerSec)
		dst = appendFloat(dst, a.IPCRef)
		dst = appendFloat(dst, a.ReadGBps)
		dst = appendFloat(dst, a.WriteGBps)
		dst = appendFloat(dst, a.L2MissPerSec)
		dst = appendFloat(dst, a.L2AccessPerSec)
		dst = appendFloat(dst, a.MemBoundFrac)
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// payloadReader walks one record payload with strict bounds checking.
type payloadReader struct {
	b   []byte
	off int
	err error
}

func (p *payloadReader) fail(what string) {
	if p.err == nil {
		p.err = fmt.Errorf("trace: truncated %s at offset %d", what, p.off)
	}
}

func (p *payloadReader) str(what string) string {
	if p.err != nil {
		return ""
	}
	n, sz := binary.Uvarint(p.b[p.off:])
	if sz <= 0 || n > uint64(len(p.b)-p.off-sz) {
		p.fail(what)
		return ""
	}
	p.off += sz
	s := string(p.b[p.off : p.off+int(n)])
	p.off += int(n)
	return s
}

func (p *payloadReader) count(what string) int {
	if p.err != nil {
		return 0
	}
	n, sz := binary.Uvarint(p.b[p.off:])
	if sz <= 0 || n > maxRecordBytes {
		p.fail(what)
		return 0
	}
	p.off += sz
	return int(n)
}

func (p *payloadReader) float(what string) float64 {
	if p.err != nil {
		return 0
	}
	if len(p.b)-p.off < 8 {
		p.fail(what)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(p.b[p.off:]))
	p.off += 8
	return f
}

// decodePayload parses one framed record payload. The payload must be
// consumed exactly: trailing bytes mean a corrupt length prefix.
func decodePayload(b []byte) (Rates, error) {
	p := &payloadReader{b: b}
	var r Rates
	r.Point.Apps = p.str("apps key")
	r.Point.FreqGHz = p.float("freq")
	r.Point.BWCapGBps = p.float("cap")
	if p.err == nil {
		if len(b)-p.off < 1 {
			p.fail("memoff flag")
		} else {
			r.Point.MemOff = b[p.off] != 0
			p.off++
		}
	}
	r.TotalReadGBps = p.float("total read")
	r.TotalWriteGBps = p.float("total write")
	r.MeanLatencyNS = p.float("latency")
	n := p.count("app count")
	if p.err == nil && n > len(b) { // every entry needs ≥ 1 byte
		p.fail("app count")
	}
	if p.err == nil {
		r.PerApp = make(map[string]AppRates, n)
		for i := 0; i < n && p.err == nil; i++ {
			name := p.str("app name")
			a := AppRates{
				InstrPerSec:    p.float("instr/s"),
				IPCRef:         p.float("ipc"),
				ReadGBps:       p.float("read"),
				WriteGBps:      p.float("write"),
				L2MissPerSec:   p.float("l2 miss"),
				L2AccessPerSec: p.float("l2 access"),
				MemBoundFrac:   p.float("membound"),
			}
			if p.err == nil {
				r.PerApp[name] = a
			}
		}
	}
	if p.err != nil {
		return Rates{}, p.err
	}
	if p.off != len(b) {
		return Rates{}, fmt.Errorf("trace: record has %d trailing bytes", len(b)-p.off)
	}
	return r, nil
}

// ChunkDecoder incrementally decodes a framed trace stream fed in
// arbitrary chunks. Bytes that do not yet form a complete record —
// including a chunk boundary inside the magic, a length prefix, or a
// record payload — are carried to the next Feed. The zero value is
// ready to use.
type ChunkDecoder struct {
	sawMagic bool
	buf      []byte // carry: unconsumed prefix of the stream
}

// Feed consumes chunk, appends every completed record to dst and
// returns it. A decode error is permanent: the stream is corrupt at a
// known offset, and further feeding cannot resynchronize.
func (d *ChunkDecoder) Feed(chunk []byte, dst []Rates) ([]Rates, error) {
	b := chunk
	if len(d.buf) > 0 {
		d.buf = append(d.buf, chunk...)
		b = d.buf
	}
	if !d.sawMagic {
		if len(b) < len(codecMagic) {
			d.carry(b)
			return dst, nil
		}
		if string(b[:len(codecMagic)]) != codecMagic {
			return dst, fmt.Errorf("trace: bad magic %q", b[:len(codecMagic)])
		}
		d.sawMagic = true
		b = b[len(codecMagic):]
	}
	for {
		n, sz := binary.Uvarint(b)
		if sz == 0 { // incomplete length prefix
			d.carry(b)
			return dst, nil
		}
		if sz < 0 || n > maxRecordBytes {
			return dst, fmt.Errorf("trace: record length %d exceeds %d-byte cap", n, maxRecordBytes)
		}
		if uint64(len(b)-sz) < n { // record spans the chunk boundary
			d.carry(b)
			return dst, nil
		}
		r, err := decodePayload(b[sz : sz+int(n)])
		if err != nil {
			return dst, err
		}
		dst = append(dst, r)
		b = b[sz+int(n):]
	}
}

// carry saves b as the undecoded prefix for the next Feed. It always
// copies: b may alias the caller's chunk, which the caller is free to
// reuse.
func (d *ChunkDecoder) carry(b []byte) {
	d.buf = append(d.buf[:0:0], b...)
}

// Buffered reports how many undecoded bytes are carried.
func (d *ChunkDecoder) Buffered() int { return len(d.buf) }

// Finish validates end-of-stream: it fails if the stream ended inside
// the magic, a length prefix, or a record.
func (d *ChunkDecoder) Finish() error {
	if !d.sawMagic {
		return fmt.Errorf("trace: stream ended before magic (%d bytes)", len(d.buf))
	}
	if len(d.buf) > 0 {
		return fmt.Errorf("trace: stream ended mid-record with %d bytes pending", len(d.buf))
	}
	return nil
}
