package imgfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// FuzzDecodeV3 feeds hostile bytes to the version-3 frame decoder and
// the block decompressor. Decoding must never panic, and any corruption
// of a well-formed v3 stream must surface as one of the image-format
// error classes (the ckpt layer wraps exactly these into
// ErrCorruptImage) — frame-level failures name the frame.
func FuzzDecodeV3(f *testing.F) {
	// Seed corpus: empty, 1-byte, incompressible, and max-chunk frames,
	// plus hand-broken streams.
	add := func(payload []byte) {
		var buf bytes.Buffer
		e := NewStreamEncoder(&buf)
		e.Bytes(1, payload)
		if err := e.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	add(nil)                              // empty frame payload
	add([]byte{0x5a})                     // 1-byte frame
	add(incompressible(11, DefaultChunk)) // incompressible max-chunk frame
	add(sparse(DefaultChunk))             // compressible max-chunk frame
	add(sparse(3*DefaultChunk + 17))      // multi-frame
	// Truncated and CRC-flipped variants of a valid stream.
	var buf bytes.Buffer
	e := NewStreamEncoder(&buf)
	e.Bytes(1, sparse(DefaultChunk+99))
	if err := e.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes()[:len(buf.Bytes())/2])
	flip := append([]byte(nil), buf.Bytes()...)
	flip[len(flip)/2] ^= 0x10
	f.Add(flip)
	// An LZ4 frame whose stored length is not smaller than its raw
	// length, and an unknown style byte.
	hdr := appendUvarint([]byte(Magic), StreamVersion3)
	bad := appendUvarint(append([]byte(nil), hdr...), 16)
	bad = append(bad, FrameLZ4)
	bad = appendUvarint(bad, 16)
	f.Add(append(bad, make([]byte, 24)...))
	sty := appendUvarint(append([]byte(nil), hdr...), 4)
	f.Add(append(sty, 0x7f, 1, 2, 3, 4, 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes through the streaming decoder: errors only.
		if sd, err := NewStreamDecoder(bytes.NewReader(data)); err == nil {
			exhaustStream(t, sd)
			_ = sd.Finished()
		}
		// Arbitrary bytes through the block decompressor: errors only.
		for _, rl := range []int{0, 1, len(data), 2*len(data) + 7, MaxFrame} {
			_, _ = blockDecompress(data, rl)
		}
		// Re-encode the input as a v3 payload, corrupt one byte, and
		// demand the walk either fails with a format-class error or
		// still yields the exact original payload.
		var enc bytes.Buffer
		we := NewStreamEncoder(&enc)
		we.Bytes(1, data)
		if err := we.Close(); err != nil {
			t.Fatal(err)
		}
		wire := enc.Bytes()
		pos, xor := 0, byte(1)
		if len(data) > 1 {
			pos = int(data[0]) % len(wire)
			xor = 1 + data[1]>>1
		}
		mut := append([]byte(nil), wire...)
		mut[pos] ^= xor
		d, err := NewStreamDecoder(bytes.NewReader(mut))
		var got []byte
		if err == nil {
			got, err = d.Bytes(1)
			if err == nil {
				err = d.Finished()
			}
		}
		if err == nil {
			if !bytes.Equal(got, data) {
				t.Fatalf("corrupt stream decoded cleanly to different payload (%d vs %d bytes)", len(got), len(data))
			}
			return
		}
		for _, class := range []error{ErrBadMagic, ErrBadVersion, ErrBadChecksum, ErrTruncated} {
			if errors.Is(err, class) {
				return
			}
		}
		t.Fatalf("corruption at byte %d surfaced outside the format error classes: %v", pos, err)
	})
}

// FuzzRoundTripV3 pins encode→decode identity for version-3 streams in
// both compression modes, plus determinism (same payload → same bytes)
// and direct block-codec round trips.
func FuzzRoundTripV3(f *testing.F) {
	f.Add([]byte{}, false)                        // empty
	f.Add([]byte{0x42}, false)                    // 1 byte
	f.Add(incompressible(5, DefaultChunk), false) // incompressible max-chunk
	f.Add(sparse(DefaultChunk), false)            // compressible max-chunk
	f.Add(sparse(2*DefaultChunk+313), true)       // multi-frame, RAW-forced
	f.Add(bytes.Repeat([]byte{1, 2, 3}, 5000), false)

	f.Fuzz(func(t *testing.T, payload []byte, nocompress bool) {
		o := StreamOpts{NoCompress: nocompress}
		encode := func() []byte {
			var buf bytes.Buffer
			e := NewStreamEncoderOpts(&buf, o)
			e.Uint(1, uint64(len(payload)))
			e.Bytes(2, payload)
			e.String(3, "pod")
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		wire := encode()
		if again := encode(); !bytes.Equal(wire, again) {
			t.Fatal("same payload encoded to different v3 bytes")
		}
		d, err := NewStreamDecoder(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("decode fresh stream: %v", err)
		}
		if d.Version() != StreamVersion3 {
			t.Fatalf("wrong version %d", d.Version())
		}
		if n, err := d.Uint(1); err != nil || n != uint64(len(payload)) {
			t.Fatalf("uint: %d %v", n, err)
		}
		got, err := d.Bytes(2)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("payload mismatch: %d bytes, %v", len(got), err)
		}
		if s, err := d.String(3); err != nil || s != "pod" {
			t.Fatalf("string: %q %v", s, err)
		}
		if err := d.Finished(); err != nil {
			t.Fatalf("finished: %v", err)
		}
		// Block codec round trip, when the heuristic accepts the payload.
		if c := blockCompress(nil, payload); c != nil {
			raw, err := blockDecompress(c, len(payload))
			if err != nil || !bytes.Equal(raw, payload) {
				t.Fatalf("block round trip: %v", err)
			}
		}
		checkFrameSequence(t, payload, nocompress)
		// The decompressor against the byte-wise reference, on the
		// payload taken as a (mostly hostile) block.
		for _, rl := range []int{0, len(payload), 2*len(payload) + 7} {
			sameAsReference(t, payload, rl)
		}
	})
}

// fuzzFrames cuts payload into a frame sequence for one encoder: a
// large compressible frame first, so every later frame is compressed
// into a buffer still holding longer output, then the payload in
// pieces — the first 32 sized by the payload's own bytes, the rest
// whole chunks — then the payload's first chunk whole.
func fuzzFrames(payload []byte) [][]byte {
	frames := [][]byte{sparse(DefaultChunk)}
	for rest := payload; len(rest) > 0; {
		n := min(len(rest), DefaultChunk)
		if len(frames) <= 32 {
			n = min(n, 1+int(rest[0])*257)
		}
		frames = append(frames, rest[:n])
		rest = rest[n:]
	}
	return append(frames, payload[:min(len(payload), DefaultChunk)])
}

// checkFrameSequence runs one encoder over a fuzzed frame sequence and
// walks its output: every frame must be stored exactly as a fresh
// blockCompress of that frame alone would store it (or RAW when that
// declines, or when compression is off), so the reused compression
// buffer never leaks bytes from one frame into the next. Each
// compressed frame must also decode the same through blockDecompress
// and the byte-wise reference.
func checkFrameSequence(t *testing.T, payload []byte, nocompress bool) {
	t.Helper()
	frames := fuzzFrames(payload)
	var buf bytes.Buffer
	e := NewStreamEncoderOpts(&buf, StreamOpts{NoCompress: nocompress})
	for _, f := range frames {
		e.emitFrame(f)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()[len(Magic)+1:] // past the magic and the 1-byte version
	for i, f := range frames {
		if len(f) == 0 {
			continue // empty payloads emit no frame
		}
		rawLen, n := binary.Uvarint(wire)
		if n <= 0 || int(rawLen) != len(f) {
			t.Fatalf("frame %d: raw length %d, want %d", i, rawLen, len(f))
		}
		style := wire[n]
		wire = wire[n+1:]
		stored := f
		if want := blockCompress(nil, f); want != nil && !nocompress {
			if style != FrameLZ4 {
				t.Fatalf("frame %d stored with style %d, want LZ4", i, style)
			}
			m, k := binary.Uvarint(wire)
			if k <= 0 || int(m) != len(want) {
				t.Fatalf("frame %d: stored length %d, fresh compress %d", i, m, len(want))
			}
			wire = wire[k:]
			stored = want
			sameAsReference(t, want, len(f))
		} else if style != FrameRaw {
			t.Fatalf("frame %d stored with style %d, want RAW", i, style)
		}
		if !bytes.Equal(wire[:len(stored)], stored) {
			t.Fatalf("frame %d: stored bytes differ from a fresh blockCompress", i)
		}
		wire = wire[len(stored)+4:] // stored bytes and their CRC
	}
	if len(wire) != 5 || wire[0] != 0 {
		t.Fatalf("%d bytes after the last frame, want the 5-byte terminator", len(wire))
	}
}

// sameAsReference demands blockDecompress and byteWiseDecompress agree
// on src: both fail, or both succeed with the same bytes.
func sameAsReference(t *testing.T, src []byte, rawLen int) {
	t.Helper()
	got, err := blockDecompress(src, rawLen)
	want, werr := byteWiseDecompress(src, rawLen)
	if (err == nil) != (werr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("rawLen %d: blockDecompress (%d bytes, %v), reference (%d bytes, %v)",
			rawLen, len(got), err, len(want), werr)
	}
}

// byteWiseDecompress is the reference decoder: blockDecompress as it
// was first written, copying every match one byte at a time.
func byteWiseDecompress(src []byte, rawLen int) ([]byte, error) {
	if rawLen < 0 || rawLen > MaxFrame {
		return nil, fmt.Errorf("lz4: bad raw length %d", rawLen)
	}
	cap0 := rawLen
	if max := len(src) * 255; cap0 > max {
		cap0 = max
	}
	dst := make([]byte, 0, cap0)
	i := 0
	for {
		if i >= len(src) {
			return nil, errors.New("lz4: truncated block")
		}
		token := src[i]
		i++
		lit := int(token >> 4)
		if lit == 15 {
			ext, ni, err := readLenExt(src, i)
			if err != nil {
				return nil, err
			}
			lit, i = lit+ext, ni
		}
		if lit > len(src)-i {
			return nil, errors.New("lz4: literal run past end of block")
		}
		if len(dst)+lit > rawLen {
			return nil, errors.New("lz4: output overruns declared raw size")
		}
		dst = append(dst, src[i:i+lit]...)
		i += lit
		if i == len(src) {
			if len(dst) != rawLen {
				return nil, fmt.Errorf("lz4: decoded %d bytes, declared %d", len(dst), rawLen)
			}
			return dst, nil
		}
		if i+2 > len(src) {
			return nil, errors.New("lz4: truncated match offset")
		}
		offset := int(src[i]) | int(src[i+1])<<8
		i += 2
		if offset == 0 || offset > len(dst) {
			return nil, fmt.Errorf("lz4: match offset %d outside %d decoded bytes", offset, len(dst))
		}
		ml := int(token & 0x0F)
		if ml == 15 {
			ext, ni, err := readLenExt(src, i)
			if err != nil {
				return nil, err
			}
			ml, i = ml+ext, ni
		}
		ml += minMatch
		if len(dst)+ml > rawLen {
			return nil, errors.New("lz4: match overruns declared raw size")
		}
		pos := len(dst) - offset
		for k := 0; k < ml; k++ {
			dst = append(dst, dst[pos+k])
		}
	}
}
