package ckpt

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"zapc/internal/imgfmt"
	"zapc/internal/memfs"
	"zapc/internal/netstack"
	"zapc/internal/pod"
)

// mkMixedPod is mkIdlePod plus an incompressible region, so its records
// carry both LZ4 and RAW frames and span many frames.
func mkMixedPod(t *testing.T, c *cluster) *pod.Pod {
	t.Helper()
	p := mkIdlePod(t, c, "mixed", 2, 300<<10)
	noise := make([]byte, 100<<10)
	rand.New(rand.NewSource(5)).Read(noise)
	p.Procs()[0].SetRegion("noise", noise)
	return p
}

// touchHot rewrites every process's small hot region, so the next
// capture has something to put in a delta.
func touchHot(p *pod.Pod, gen byte) {
	for i, proc := range p.Procs() {
		proc.SetRegion("hot", []byte{gen, byte(i), 7})
	}
}

// storeFile writes one record into fs through write and returns what
// the store holds: the bytes and the file's chunk count, which follows
// the writer's Write calls.
func storeFile(t *testing.T, fs *memfs.FS, path string, write func(io.Writer) (StreamStats, error)) (StreamStats, []byte, int) {
	t.Helper()
	wc, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := write(wc)
	if err != nil {
		t.Fatal(err)
	}
	if err := wc.Close(); err != nil {
		t.Fatal(err)
	}
	rc, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st, data, info.Chunks
}

// TestRecordReplayMatchesDirectEncode pins that a record encoded once at
// capture and replayed into a store leaves exactly what a direct
// EncodeStream into the same store leaves — the same bytes, the same
// stats, and the same chunk layout — for every record kind a checkpoint
// flushes: stop-and-copy, incremental full and delta, and pre-copy base,
// round and residual.
func TestRecordReplayMatchesDirectEncode(t *testing.T) {
	c := mkCluster(t, 1)
	p := mkMixedPod(t, c)
	type kind struct {
		name   string
		rec    *Record
		direct func(io.Writer) (StreamStats, error)
	}
	var kinds []kind

	img, err := CheckpointPod(p)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := img.Record()
	if err != nil {
		t.Fatal(err)
	}
	kinds = append(kinds, kind{"stop-and-copy", rec, img.EncodeStream})

	tr := NewTracker()
	full := captureCommit(t, tr, p, true)
	kinds = append(kinds, kind{"incremental full", full.Record, full.Image.EncodeStream})
	touchHot(p, 1)
	delta := captureCommit(t, tr, p, false)
	if delta.Full() {
		t.Fatal("expected a delta generation")
	}
	kinds = append(kinds, kind{"incremental delta", delta.Record, delta.Delta.EncodeStream})

	pc, base, err := BeginPrecopy(p)
	if err != nil {
		t.Fatal(err)
	}
	kinds = append(kinds, kind{"pre-copy base", base.Record, base.Image.EncodeStream})
	touchHot(p, 2)
	round, err := pc.Round()
	if err != nil {
		t.Fatal(err)
	}
	kinds = append(kinds, kind{"pre-copy round", round.Record, round.Delta.EncodeStream})
	touchHot(p, 3)
	residual, err := pc.Finalize(nil)
	if err != nil {
		t.Fatal(err)
	}
	kinds = append(kinds, kind{"pre-copy residual", residual.Record, residual.Delta.EncodeStream})

	fs := memfs.New()
	for _, k := range kinds {
		wantSt, want, wantChunks := storeFile(t, fs, "direct/"+k.name, k.direct)
		gotSt, got, gotChunks := storeFile(t, fs, "replay/"+k.name, k.rec.Stream)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: replayed %d bytes differ from the direct encode's %d", k.name, len(got), len(want))
		}
		if gotChunks != wantChunks {
			t.Errorf("%s: replay left %d chunks, direct encode %d", k.name, gotChunks, wantChunks)
		}
		if gotSt != wantSt || k.rec.Stats() != wantSt {
			t.Errorf("%s: stats %+v (held %+v), direct encode %+v", k.name, gotSt, k.rec.Stats(), wantSt)
		}
	}
	// The full records span many frames, so the layout check has teeth.
	if _, _, n := storeFile(t, fs, "probe", rec.Stream); n < 10 {
		t.Fatalf("stop-and-copy record written in only %d chunks", n)
	}
}

// TestRecordRelease pins that a released record refuses to stream while
// its stats, which chains and accounting read later, stay valid.
func TestRecordRelease(t *testing.T) {
	c := mkCluster(t, 1)
	p := mkIdlePod(t, c, "rel", 1, 4096)
	tr := NewTracker()
	pend := captureCommit(t, tr, p, true)
	st := pend.Stats()
	pend.Release()
	if _, err := pend.Stream(io.Discard); !errors.Is(err, ErrRecordReleased) {
		t.Fatalf("stream after release: err = %v, want ErrRecordReleased", err)
	}
	if pend.Stats() != st || st.Bytes == 0 {
		t.Fatalf("stats changed by release: %+v, then %+v", st, pend.Stats())
	}
}

// oldBytes is how Image.Bytes computed the logical size before records
// were encoded once: a default (compressing) encode to a counting sink.
func oldBytes(img *Image) int64 {
	st, _ := img.EncodeStream(io.Discard)
	return st.Raw
}

// TestImageBytes pins Image.Bytes to StreamStats.Raw with and without
// compression, and to the figure the old compressing count gave for
// images that were never encoded: decoded, chain-reconstructed and
// remapped. TestFormatFixturesFull pins it across the frozen framings.
func TestImageBytes(t *testing.T) {
	c := mkCluster(t, 1)
	p := mkMixedPod(t, c)
	img, err := CheckpointPod(p)
	if err != nil {
		t.Fatal(err)
	}
	want := oldBytes(img)
	for _, o := range []imgfmt.StreamOpts{{}, {NoCompress: true}} {
		st, err := img.EncodeStreamWith(io.Discard, o)
		if err != nil {
			t.Fatal(err)
		}
		if st.Raw != want {
			t.Errorf("opts %+v: Raw %d, want %d", o, st.Raw, want)
		}
	}
	if got := img.Bytes(); got != want {
		t.Errorf("never-encoded image: Bytes %d, want %d", got, want)
	}
	rec, err := img.Record()
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := CheckpointPod(p)
	if err != nil {
		t.Fatal(err)
	}
	seededRec, err := seeded.Record()
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Bytes() != seededRec.Stats().Raw || seeded.Bytes() != want {
		t.Errorf("record-seeded image: Bytes %d, Raw %d, want %d", seeded.Bytes(), seededRec.Stats().Raw, want)
	}

	var wire bytes.Buffer
	if _, err := rec.Stream(&wire); err != nil {
		t.Fatal(err)
	}
	decode := func() *Image {
		d, err := DecodeImageFrom(bytes.NewReader(wire.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if got, w := decode().Bytes(), oldBytes(decode()); got != w || got != want {
		t.Errorf("decoded image: Bytes %d, old count %d, want %d", got, w, want)
	}

	tr := NewTracker()
	records := [][]byte{wireOf(t, captureCommit(t, tr, p, true))}
	touchHot(p, 4)
	records = append(records, wireOf(t, captureCommit(t, tr, p, false)))
	rebuild := func() *Image {
		r, err := ReconstructChain(records)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if got, w := rebuild().Bytes(), oldBytes(rebuild()); got != w {
		t.Errorf("reconstructed image: Bytes %d, old count %d", got, w)
	}

	// Remap can change the network section's size; the first figure
	// taken sticks, exactly as the memo always behaved.
	remap := map[netstack.IP]netstack.IP{img.VIP: 0xfffffff0}
	before := decode()
	pre := before.Bytes()
	before.Remap(remap)
	after := decode()
	after.Remap(remap)
	post := oldBytes(after)
	if post == pre {
		t.Fatal("remap did not change the logical size; pick a remap that does")
	}
	if got := before.Bytes(); got != pre {
		t.Errorf("Bytes taken before Remap moved to %d, want %d", got, pre)
	}
	if got := after.Bytes(); got != post {
		t.Errorf("Bytes first taken after Remap: %d, old count %d", got, post)
	}
	seeded.Remap(remap)
	if got := seeded.Bytes(); got != want {
		t.Errorf("record-seeded image after Remap: Bytes %d, want the encode's %d", got, want)
	}
}
