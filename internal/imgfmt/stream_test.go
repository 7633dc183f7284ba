package imgfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// formatFixture reads one frozen record from the golden set in
// internal/ckpt/testdata/formats (its README says how each was made).
// Nothing writes version-2 records any more, so the version-2 cases here
// read frozen ones.
func formatFixture(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "ckpt", "testdata", "formats", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fieldsBig is the bulk payload of fields.v2: a representative record
// of scalar metadata, a nested section, this payload (larger than the
// chunk size, so it spans frames) and a float, written by the version-2
// stream encoder — decodeV2 lists the fields.
var fieldsBig = bytes.Repeat([]byte{3}, DefaultChunk+517)

// asDelta turns a version-1 image into a delta record: the two differ
// only in magic, which the CRC trailer covers.
func asDelta(img []byte) []byte {
	out := append([]byte(DeltaMagic), img[len(Magic):len(img)-4]...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

func decodeV2(t *testing.T, data []byte, big []byte) {
	t.Helper()
	d, err := NewStreamDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("new decoder: %v", err)
	}
	if d.Version() != StreamVersion || d.IsDelta() {
		t.Fatalf("version=%d delta=%v", d.Version(), d.IsDelta())
	}
	if s, err := d.String(1); err != nil || s != "pod-0" {
		t.Fatalf("string: %q %v", s, err)
	}
	if v, err := d.Uint(2); err != nil || v != 0x0a000001 {
		t.Fatalf("uint: %d %v", v, err)
	}
	if v, err := d.Int(3); err != nil || v != -12345 {
		t.Fatalf("int: %d %v", v, err)
	}
	sec, err := d.Section(4)
	if err != nil {
		t.Fatalf("section: %v", err)
	}
	if v, err := sec.Uint(1); err != nil || v != 9 {
		t.Fatalf("section uint: %d %v", v, err)
	}
	if v, err := sec.Bool(2); err != nil || !v {
		t.Fatalf("section bool: %v %v", v, err)
	}
	got, err := d.Bytes(5)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("bytes: %d bytes, %v (want %d)", len(got), err, len(big))
	}
	if v, err := d.Float64(6); err != nil || v != 2.75 {
		t.Fatalf("float: %v %v", v, err)
	}
	if err := d.Finished(); err != nil {
		t.Fatalf("finished: %v", err)
	}
}

// TestStreamRoundTripV2 decodes the frozen version-2 record field by
// field.
func TestStreamRoundTripV2(t *testing.T) {
	decodeV2(t, formatFixture(t, "fields.v2"), fieldsBig)
}

// TestStreamEncoderPeakBounded pins the tentpole invariant at the
// format layer: encoding a payload many times the chunk size buffers at
// most O(chunk), never the payload.
func TestStreamEncoderPeakBounded(t *testing.T) {
	big := make([]byte, 16*DefaultChunk)
	var buf bytes.Buffer
	e := NewStreamEncoder(&buf)
	e.String(1, "p")
	e.Bytes(5, big)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e.Peak() > int64(2*DefaultChunk) {
		t.Fatalf("peak buffered %d > 2 chunks (%d) for a %d-byte payload", e.Peak(), 2*DefaultChunk, len(big))
	}
	if e.Written() != int64(buf.Len()) {
		t.Fatalf("written %d != emitted %d", e.Written(), buf.Len())
	}
}

// TestStreamDecoderV1 checks a legacy in-memory image reads through the
// streaming decoder transparently, with Raw exposing the validated
// record.
func TestStreamDecoderV1(t *testing.T) {
	e := NewEncoder()
	e.Uint(1, 7)
	e.String(2, "x")
	img := e.Finish()
	d, err := NewStreamDecoder(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if d.Version() != Version || d.IsDelta() {
		t.Fatalf("version=%d delta=%v", d.Version(), d.IsDelta())
	}
	if !bytes.Equal(d.Raw(), img) {
		t.Fatal("Raw() does not round-trip the v1 record")
	}
	if v, err := d.Uint(1); err != nil || v != 7 {
		t.Fatalf("uint: %d %v", v, err)
	}
	if s, err := d.String(2); err != nil || s != "x" {
		t.Fatalf("string: %q %v", s, err)
	}
	if err := d.Finished(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamDecoderTruncated drops bytes off the tail at every length
// and asserts decode always errors (never hangs, never succeeds).
func TestStreamDecoderTruncated(t *testing.T) {
	whole := formatFixture(t, "fields.v2")
	walk := func(data []byte) error {
		d, err := NewStreamDecoder(bytes.NewReader(data))
		if err != nil {
			return err
		}
		if _, err := d.String(1); err != nil {
			return err
		}
		if _, err := d.Uint(2); err != nil {
			return err
		}
		if _, err := d.Int(3); err != nil {
			return err
		}
		if _, err := d.Section(4); err != nil {
			return err
		}
		if _, err := d.Bytes(5); err != nil {
			return err
		}
		if _, err := d.Float64(6); err != nil {
			return err
		}
		return d.Finished()
	}
	if err := walk(whole); err != nil {
		t.Fatalf("intact stream: %v", err)
	}
	for cut := 0; cut < len(whole); cut++ {
		if err := walk(whole[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded successfully", cut, len(whole))
		}
	}
}

// TestStreamDecoderBadChunkCRC flips one byte in each frame region and
// asserts the walk fails with a checksum (or framing) error.
func TestStreamDecoderBadChunkCRC(t *testing.T) {
	whole := formatFixture(t, "fields.v2")
	for _, pos := range []int{len(Magic) + 2, len(whole) / 2, len(whole) - 3} {
		bad := append([]byte(nil), whole...)
		bad[pos] ^= 0x40
		d, err := NewStreamDecoder(bytes.NewReader(bad))
		if err == nil {
			if _, err = d.String(1); err == nil {
				if _, err = d.Uint(2); err == nil {
					if _, err = d.Int(3); err == nil {
						if _, err = d.Section(4); err == nil {
							if _, err = d.Bytes(5); err == nil {
								if _, err = d.Float64(6); err == nil {
									err = d.Finished()
								}
							}
						}
					}
				}
			}
		}
		if err == nil {
			t.Fatalf("corruption at byte %d went undetected", pos)
		}
	}
}

// TestStreamDecoderHugeDeclaredLength hand-builds a frame claiming a
// payload far beyond MaxFrame; the decoder must reject it up front
// instead of allocating.
func TestStreamDecoderHugeDeclaredLength(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(Magic)
	hdr := appendUvarint(nil, StreamVersion)
	buf.Write(hdr)
	buf.Write(appendUvarint(nil, 1<<40)) // absurd frame length
	buf.Write(bytes.Repeat([]byte{0}, 64))
	d, err := NewStreamDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("header rejected: %v", err)
	}
	_, _, err = d.Peek()
	if !errors.Is(err, ErrFrame) && !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("want frame/checksum error, got %v", err)
	}
}

// TestStreamDecoderLyingFieldLength: a valid frame whose TLV payload
// declares a Bytes field longer than the stream. The window only grows
// by verified frames, so the decode must fail with ErrTruncated without
// a giant allocation.
func TestStreamDecoderLyingFieldLength(t *testing.T) {
	payload := appendUvarint(nil, 5) // tag
	payload = append(payload, TypeBytes)
	payload = appendUvarint(payload, 1<<30) // claims 1 GiB
	var buf bytes.Buffer
	hdr := appendUvarint([]byte(Magic), StreamVersion)
	buf.Write(hdr)
	buf.Write(appendUvarint(nil, uint64(len(payload))))
	buf.Write(payload)
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], crc32.ChecksumIEEE(payload))
	buf.Write(tr[:])
	d, err := NewStreamDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Bytes(5); !errors.Is(err, ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
}

func TestSniffVersion(t *testing.T) {
	e := NewEncoder()
	e.Uint(1, 1)
	v1 := e.Finish()
	if ver, delta, err := SniffVersion(v1); ver != Version || delta || err != nil {
		t.Fatalf("v1: %d %v %v", ver, delta, err)
	}
	if ver, delta, err := SniffVersion(asDelta(v1)); ver != Version || !delta || err != nil {
		t.Fatalf("v1 delta: %d %v %v", ver, delta, err)
	}
	var buf bytes.Buffer
	se := NewStreamDeltaEncoder(&buf)
	se.Uint(1, 1)
	if err := se.Close(); err != nil {
		t.Fatal(err)
	}
	if ver, delta, err := SniffVersion(buf.Bytes()); ver != StreamVersion3 || !delta || err != nil {
		t.Fatalf("v3 delta: %d %v %v", ver, delta, err)
	}
	if ver, delta, err := SniffVersion(formatFixture(t, "delta.v2")); ver != StreamVersion || !delta || err != nil {
		t.Fatalf("v2 delta: %d %v %v", ver, delta, err)
	}
	if _, _, err := SniffVersion([]byte("NOTMAGIC")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	if _, _, err := SniffVersion([]byte(Magic)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short: %v", err)
	}
	bad := appendUvarint([]byte(Magic), 9)
	if _, _, err := SniffVersion(bad); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: %v", err)
	}
}

// TestEncoderWrapperByteIdentity pins that the in-memory Encoder (now a
// wrapper over StreamEncoder) still produces the exact legacy v1 bytes:
// header, field stream, CRC trailer.
func TestEncoderWrapperByteIdentity(t *testing.T) {
	e := NewEncoder()
	e.Uint(1, 42)
	e.String(2, "pod")
	e.Begin(3)
	e.Bytes(1, []byte{1, 2, 3})
	e.Bool(2, true)
	e.End()
	e.Float64(4, 3.14)
	img := e.Finish()

	// Reconstruct the expected bytes by hand from the format spec.
	want := append([]byte(Magic), Version)
	field := func(b []byte, tag uint64, typ byte) []byte {
		return append(appendUvarint(b, tag), typ)
	}
	want = appendUvarint(field(want, 1, TypeUint), 42)
	want = field(want, 2, TypeString)
	want = append(appendUvarint(want, 3), "pod"...)
	sec := appendUvarint(field(nil, 1, TypeBytes), 3)
	sec = append(sec, 1, 2, 3)
	sec = append(field(sec, 2, TypeBool), 1)
	want = field(want, 3, TypeSection)
	want = append(appendUvarint(want, uint64(len(sec))), sec...)
	want = field(want, 4, TypeFloat64)
	var f8 [8]byte
	binary.LittleEndian.PutUint64(f8[:], 0x40091EB851EB851F) // 3.14
	want = append(want, f8[:]...)
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], crc32.ChecksumIEEE(want))
	want = append(want, tr[:]...)

	if !bytes.Equal(img, want) {
		t.Fatalf("wrapper output differs from the legacy v1 encoding:\n got %x\nwant %x", img, want)
	}
}

// TestStreamEncoderWriteError checks the sticky-error path: a failing
// writer surfaces through Close, not a panic.
func TestStreamEncoderWriteError(t *testing.T) {
	e := NewStreamEncoder(failWriter{})
	e.Bytes(1, bytes.Repeat([]byte{1}, 2*DefaultChunk))
	if err := e.Close(); err == nil {
		t.Fatal("write error swallowed")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }
