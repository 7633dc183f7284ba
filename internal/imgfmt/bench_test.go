package imgfmt

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// Codec benchmarks over a 32 MiB image-shaped record: a few small
// metadata fields, then 8 regions of 4 MiB as top-level Bytes fields,
// each alternating 4 KiB runs of random and repeated bytes (~2:1 under
// LZ4). Throughput is on the logical basis (the uncompressed field
// stream, StreamEncoder.Logical), so encode and decode MB/s compare
// directly. Each runs in two IO modes that must give identical bytes:
// in-memory (the whole record in one buffer) and streaming (an
// io.Writer sink that keeps nothing; an io.Reader that hands over at
// most 32 KiB per Read, as a store or socket does).

const (
	benchRegions    = 8
	benchRegionSize = 4 << 20
	benchReadSize   = 32 << 10
)

// benchRegionData returns the regions: runs of seeded random bytes
// alternating with runs of one repeated byte.
func benchRegionData() [][]byte {
	r := rand.New(rand.NewSource(2005))
	regions := make([][]byte, benchRegions)
	for i := range regions {
		b := make([]byte, benchRegionSize)
		for off := 0; off < len(b); off += 8 << 10 {
			r.Read(b[off : off+4<<10])
			fill := byte(r.Intn(256))
			for k := off + 4<<10; k < off+8<<10; k++ {
				b[k] = fill
			}
		}
		regions[i] = b
	}
	return regions
}

// encodeBench writes the record to w, returning its logical size.
func encodeBench(w io.Writer, regions [][]byte) (int64, error) {
	e := NewStreamEncoder(w)
	e.String(1, "pod-0")
	e.Uint(2, 0x0a000001)
	for i, r := range regions {
		e.Begin(3)
		e.Int(1, int64(i))
		e.String(2, "region")
		e.End()
		e.Bytes(4, r)
	}
	err := e.Close()
	return e.Logical(), err
}

// decodeBench walks the record, returning the region bytes decoded.
func decodeBench(r io.Reader) (int, error) {
	d, err := NewStreamDecoder(r)
	if err != nil {
		return 0, err
	}
	if _, err := d.String(1); err != nil {
		return 0, err
	}
	if _, err := d.Uint(2); err != nil {
		return 0, err
	}
	n := 0
	for i := 0; i < benchRegions; i++ {
		if _, err := d.Section(3); err != nil {
			return 0, err
		}
		b, err := d.Bytes(4)
		if err != nil {
			return 0, err
		}
		n += len(b)
	}
	return n, d.Finished()
}

// cappedReader hands over at most n bytes per Read.
type cappedReader struct {
	r io.Reader
	n int
}

func (c cappedReader) Read(p []byte) (int, error) {
	return c.r.Read(p[:min(len(p), c.n)])
}

// benchRecord encodes the record once in memory, checking the
// streaming encode writes the same bytes.
func benchRecord(b *testing.B, regions [][]byte) ([]byte, int64) {
	b.Helper()
	var mem bytes.Buffer
	logical, err := encodeBench(&mem, regions)
	if err != nil {
		b.Fatal(err)
	}
	var streamed bytes.Buffer
	if _, err := encodeBench(struct{ io.Writer }{&streamed}, regions); err != nil {
		b.Fatal(err)
	}
	if !bytes.Equal(mem.Bytes(), streamed.Bytes()) {
		b.Fatal("streaming and in-memory encodes differ")
	}
	return mem.Bytes(), logical
}

func BenchmarkV3Encode(b *testing.B) {
	regions := benchRegionData()
	wire, logical := benchRecord(b, regions)
	b.Run("in-memory", func(b *testing.B) {
		buf := bytes.NewBuffer(make([]byte, 0, len(wire)))
		b.SetBytes(logical)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if _, err := encodeBench(buf, regions); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(wire))/float64(logical), "wire/logical")
	})
	b.Run("streaming", func(b *testing.B) {
		b.SetBytes(logical)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := encodeBench(io.Discard, regions); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkV3Decode(b *testing.B) {
	wire, logical := benchRecord(b, benchRegionData())
	for _, mode := range []struct {
		name string
		open func() io.Reader
	}{
		{"in-memory", func() io.Reader { return bytes.NewReader(wire) }},
		{"streaming", func() io.Reader { return cappedReader{bytes.NewReader(wire), benchReadSize} }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.SetBytes(logical)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n, err := decodeBench(mode.open())
				if err != nil {
					b.Fatal(err)
				}
				if n != benchRegions*benchRegionSize {
					b.Fatalf("decoded %d region bytes", n)
				}
			}
		})
	}
}
