package zapc_test

// Acceptance layer for the version-3 frame format and the
// content-deduplicated image store, exercised end to end through the
// public cluster API:
//
//   - a churn workload's incremental generations land in the dedup
//     store at least 30% smaller than the same records encoded with the
//     uncompressed version-2 framing;
//   - the frozen chain whose records span all three on-disk format
//     versions (v1 base, v2 delta, v3 delta) reconstructs to the same
//     image as its all-v3 twin, and a flushed chain reconstructs to the
//     materialized image and restarts to the exact uninterrupted
//     result;
//   - the encoded bytes are a pure function of the logical image —
//     identical across worker counts, across streaming vs. buffered
//     production, and across runs, in both compression modes.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"zapc"
	"zapc/internal/ckpt"
	"zapc/internal/imgfmt"
)

// grabStored reads every record under prefix through the given store
// (grabFlushed's analogue for a dedup store, where the filesystem path
// holds a manifest rather than the record bytes).
func grabStored(t *testing.T, st zapc.ImageStore, prefix string) map[string][]byte {
	t.Helper()
	paths := st.List(prefix)
	if len(paths) == 0 {
		t.Fatalf("no records stored under %q", prefix)
	}
	out := make(map[string][]byte, len(paths))
	for _, path := range paths {
		rc, err := st.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatal(err)
		}
		out[path] = data
	}
	return out
}

// rawOf is the byte-for-byte comparison form of an image: a version-3
// encode with every frame stored RAW.
func rawOf(img *ckpt.Image) []byte {
	var b bytes.Buffer
	img.EncodeStreamWith(&b, imgfmt.StreamOpts{NoCompress: true}) // a bytes.Buffer never fails
	return b.Bytes()
}

// frozenRecord reads one of the golden records of every format version
// kept in internal/ckpt/testdata/formats (its README says how each was
// made).
func frozenRecord(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("internal", "ckpt", "testdata", "formats", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// v2Of transcodes a version-3 record whose frames are all RAW (a
// NoCompress encode) into the uncompressed version-2 framing: the same
// frames without their style byte, under a version-2 header and the
// whole-stream CRC that header implies. The version-2 encoder cut its
// frames at the same points, so this reproduces its output byte for
// byte; TestV2TranscoderReproducesFixtures holds it to the frozen
// version-2 records.
func v2Of(t *testing.T, v3 []byte) []byte {
	t.Helper()
	hdr := len(imgfmt.Magic)
	if len(v3) <= hdr || v3[hdr] != imgfmt.StreamVersion3 {
		t.Fatal("v2Of: not a version-3 record")
	}
	out := append(append([]byte(nil), v3[:hdr]...), imgfmt.StreamVersion)
	sum := crc32.ChecksumIEEE(out)
	rest := v3[hdr+1:]
	for {
		n, k := binary.Uvarint(rest)
		if k <= 0 {
			t.Fatal("v2Of: malformed frame")
		}
		if n == 0 { // terminator
			return binary.LittleEndian.AppendUint32(append(out, 0), sum)
		}
		end := k + 1 + int(n) + 4 // length, style, payload, CRC
		if len(rest) < end || rest[k] != imgfmt.FrameRaw {
			t.Fatal("v2Of: not a RAW frame")
		}
		payload := rest[k+1 : k+1+int(n)]
		out = append(out, rest[:k]...)
		out = append(out, rest[k+1:end]...) // payload and its CRC
		sum = crc32.Update(sum, crc32.IEEETable, payload)
		rest = rest[end:]
	}
}

// reencodeV2 decodes one flushed record (full image or delta) and
// re-encodes it with the uncompressed version-2 framing, returning the
// v2 wire size — the bytes the same generation cost before this format
// version existed.
func reencodeV2(t *testing.T, path string, data []byte) int64 {
	t.Helper()
	raw := imgfmt.StreamOpts{NoCompress: true}
	var buf bytes.Buffer
	if _, delta, err := imgfmt.SniffVersion(data); err != nil {
		t.Fatalf("%s: %v", path, err)
	} else if delta {
		d, err := ckpt.DecodeDeltaFrom(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if _, err := d.EncodeStreamWith(&buf, raw); err != nil {
			t.Fatal(err)
		}
	} else {
		img, err := ckpt.DecodeImageFrom(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if _, err := img.EncodeStreamWith(&buf, raw); err != nil {
			t.Fatal(err)
		}
	}
	return int64(len(v2Of(t, buf.Bytes())))
}

// TestV2TranscoderReproducesFixtures holds v2Of to the bytes the
// retired version-2 encoder wrote: transcoding the v3 twins of the
// frozen full image and delta (the delta re-linked to each parent it
// was frozen with) gives full.v2, delta.v2 and mixed1.v2 exactly.
func TestV2TranscoderReproducesFixtures(t *testing.T) {
	img, err := ckpt.DecodeImage(frozenRecord(t, "full.v3"))
	if err != nil {
		t.Fatal(err)
	}
	if got := v2Of(t, rawOf(img)); !bytes.Equal(got, frozenRecord(t, "full.v2")) {
		t.Fatal("transcoded full image differs from full.v2")
	}
	d, err := ckpt.DecodeDelta(frozenRecord(t, "delta.v3"))
	if err != nil {
		t.Fatal(err)
	}
	for want, parent := range map[string]string{"delta.v2": "full.v2", "mixed1.v2": "full.v1"} {
		d.ParentSum = crc32.ChecksumIEEE(frozenRecord(t, parent))
		var buf bytes.Buffer
		if _, err := d.EncodeStreamWith(&buf, imgfmt.StreamOpts{NoCompress: true}); err != nil {
			t.Fatal(err)
		}
		if got := v2Of(t, buf.Bytes()); !bytes.Equal(got, frozenRecord(t, want)) {
			t.Fatalf("transcoded delta differs from %s", want)
		}
	}
}

// TestV3ChurnStoredBytesReduction pins the headline storage win: with
// version-3 frames and the dedup store, each incremental generation of
// the write-heavy churn workload adds at least 30% fewer physical bytes
// than the identical records cost under the uncompressed version-2
// framing.
func TestV3ChurnStoredBytesReduction(t *testing.T) {
	c := zapc.New(zapc.Config{Nodes: 4, Seed: 99})
	ded := c.EnableDedupStore()
	job, err := c.Launch(churnSpec())
	if err != nil {
		t.Fatal(err)
	}
	incr := zapc.NewIncrSet(100) // one full base, then deltas
	const gens = 4
	var v3Incr, v2Incr int64
	var prevStored int64
	for i := 0; i < gens; i++ {
		driveTo(t, c, job, 0.18*float64(i+1))
		prefix := fmt.Sprintf("v3red/g%d", i)
		if _, err := c.Checkpoint(job, zapc.CheckpointOptions{
			Mode: zapc.Snapshot, Workers: 4, Incr: incr, FlushTo: prefix,
		}); err != nil {
			t.Fatal(err)
		}
		growth := ded.Usage().StoredBytes() - prevStored
		prevStored = ded.Usage().StoredBytes()
		var v2 int64
		for path, data := range grabStored(t, ded, prefix) {
			v2 += reencodeV2(t, path, data)
		}
		if i == 0 {
			continue // the full base is not an incremental generation
		}
		v3Incr += growth
		v2Incr += v2
	}
	if _, err := c.RunJob(job, eqDeadline); err != nil {
		t.Fatal(err)
	}
	if v3Incr <= 0 || v2Incr <= 0 {
		t.Fatalf("degenerate measurement: v3 stored %d, v2 wire %d", v3Incr, v2Incr)
	}
	ratio := float64(v3Incr) / float64(v2Incr)
	t.Logf("incremental generations: v3+dedup stores %d B vs v2 %d B (%.1f%% of baseline)",
		v3Incr, v2Incr, 100*ratio)
	if ratio > 0.7 {
		t.Fatalf("v3 stores only %.1f%% fewer bytes per incremental generation than v2, want >=30%%",
			100*(1-ratio))
	}
}

// TestMixedVersionChainRestore proves every format version decodes
// forever and chains compose across them: the frozen chain of a base in
// the version-1 TLV format, a delta in the version-2 chunked framing
// and a delta in version-3 compressed frames — each linked to the
// bytes its parent has on disk — reconstructs to the same image as its
// all-v3 twin. The flushed chain of a live job reconstructs to the
// materialized image, and a restart reproduces the exact uninterrupted
// result.
func TestMixedVersionChainRestore(t *testing.T) {
	mixed, err := ckpt.ReconstructChain([][]byte{
		frozenRecord(t, "full.v1"), frozenRecord(t, "mixed1.v2"), frozenRecord(t, "mixed2.v3"),
	})
	if err != nil {
		t.Fatalf("mixed-version chain: %v", err)
	}
	twin, err := ckpt.ReconstructChain([][]byte{
		frozenRecord(t, "full.v3"), frozenRecord(t, "delta.v3"), frozenRecord(t, "delta2.v3"),
	})
	if err != nil {
		t.Fatalf("v3 chain: %v", err)
	}
	if !bytes.Equal(rawOf(mixed), rawOf(twin)) {
		t.Fatal("mixed v1/v2/v3 chain differs from its all-v3 twin")
	}

	const seed = 17
	want := refFor(t, seed, churnSpec())

	c := zapc.New(zapc.Config{Nodes: 4, Seed: seed})
	job, err := c.Launch(churnSpec())
	if err != nil {
		t.Fatal(err)
	}
	incr := zapc.NewIncrSet(100)
	var results []*zapc.CheckpointResult
	for i, p := range []float64{0.3, 0.5, 0.7} {
		driveTo(t, c, job, p)
		mode := zapc.Snapshot
		if i == 2 {
			// The last generation tears the pods down so the restart
			// below reinstates them from the chain.
			mode = zapc.MigrateMode
		}
		res, err := c.Checkpoint(job, zapc.CheckpointOptions{
			Mode: mode, Workers: 4, Incr: incr, FlushTo: fmt.Sprintf("mix/g%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	final := results[len(results)-1]
	for vip, img := range final.Images {
		var chain [][]byte
		for i, ext := range []string{"img", "delta", "delta"} {
			rec, err := c.FS.ReadFile(fmt.Sprintf("mix/g%d/%s.%s", i, img.PodName, ext))
			if err != nil {
				t.Fatalf("pod %v: %v", vip, err)
			}
			chain = append(chain, rec)
		}
		rebuilt, err := ckpt.ReconstructChain(chain)
		if err != nil {
			t.Fatalf("pod %v: chain: %v", vip, err)
		}
		if !bytes.Equal(rawOf(rebuilt), rawOf(img)) {
			t.Fatalf("pod %v: flushed chain differs from the materialized image", vip)
		}
	}
	if _, err := c.Restart(job, final, c.Nodes); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunJob(job, eqDeadline); err != nil {
		t.Fatal(err)
	}
	if got := job.Result(); got != want {
		t.Fatalf("restart from the chain gave %v, uninterrupted run gave %v", got, want)
	}
}

// TestV3CrossConfigBitIdentity is the cross-configuration property
// test: one seeded checkpoint produces the same stored bytes whatever
// the worker count, whether the record streams into the store or is
// buffered and re-encoded afterward, and — per compression mode — the
// encoding is deterministic, with both modes carrying the identical
// logical image.
func TestV3CrossConfigBitIdentity(t *testing.T) {
	grab := func(workers int) (map[string][]byte, map[string]*ckpt.Image) {
		c := zapc.New(zapc.Config{Nodes: 4, Seed: 41})
		job, err := c.Launch(eqSpec())
		if err != nil {
			t.Fatal(err)
		}
		driveTo(t, c, job, 0.5)
		res, err := c.Checkpoint(job, zapc.CheckpointOptions{
			Mode: zapc.Snapshot, Workers: workers, FlushTo: "xcfg",
		})
		if err != nil {
			t.Fatal(err)
		}
		imgs := make(map[string]*ckpt.Image)
		for _, img := range res.Images {
			imgs["xcfg/"+img.PodName+".img"] = img
		}
		if _, err := c.RunJob(job, eqDeadline); err != nil {
			t.Fatal(err)
		}
		return grabFlushed(t, c, "xcfg"), imgs
	}

	flushed, imgs := grab(1)
	for _, w := range []int{2, 8} {
		other, _ := grab(w)
		diffRecords(t, fmt.Sprintf("workers=%d", w), flushed, other)
	}
	for path, img := range imgs {
		// Streaming vs. buffered: the record the checkpoint streamed
		// into the store equals a buffered re-encode of the image.
		var buf bytes.Buffer
		if _, err := img.EncodeStreamWith(&buf, imgfmt.StreamOpts{}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), flushed[path]) {
			t.Fatalf("%s: streamed record differs from buffered encode (%d vs %d bytes)",
				path, len(flushed[path]), buf.Len())
		}
		// Compression on/off: each mode deterministic, RAW never larger
		// than logical, and both decode to the identical image.
		var raw1, raw2 bytes.Buffer
		if _, err := img.EncodeStreamWith(&raw1, imgfmt.StreamOpts{NoCompress: true}); err != nil {
			t.Fatal(err)
		}
		if _, err := img.EncodeStreamWith(&raw2, imgfmt.StreamOpts{NoCompress: true}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw1.Bytes(), raw2.Bytes()) {
			t.Fatalf("%s: NoCompress encoding is not deterministic", path)
		}
		if buf.Len() >= raw1.Len() {
			t.Fatalf("%s: compressed record (%d B) not smaller than RAW (%d B)", path, buf.Len(), raw1.Len())
		}
		fromC, err := ckpt.DecodeImageFrom(bytes.NewReader(flushed[path]))
		if err != nil {
			t.Fatal(err)
		}
		fromR, err := ckpt.DecodeImageFrom(bytes.NewReader(raw1.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rawOf(fromC), rawOf(fromR)) {
			t.Fatalf("%s: compressed and RAW records decode to different images", path)
		}
	}
}
