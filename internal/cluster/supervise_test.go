package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zapc/internal/core"
	"zapc/internal/sim"
)

// TestRestartFromFSRefusesCorruptImage corrupts one byte of a flushed
// checkpoint image on the shared FS and asserts that a restart from
// storage refuses it up front with ErrCorruptImage naming the pod —
// before any virtual address is claimed — and that repairing the byte
// makes the same restart succeed exactly.
func TestRestartFromFSRefusesCorruptImage(t *testing.T) {
	c := New(Config{Nodes: 4, Seed: 21})
	job, err := c.Launch(JobSpec{App: "bratu", Endpoints: 4, Work: 0.03, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	ref := New(Config{Nodes: 4, Seed: 21})
	refJob, err := ref.Launch(JobSpec{App: "bratu", Endpoints: 4, Work: 0.03, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.RunJob(refJob, 30*60*sim.Second); err != nil {
		t.Fatal(err)
	}
	want := refJob.Result()

	if err := c.Drive(func() bool { return job.Progress() > 0.3 }, 30*60*sim.Second); err != nil {
		t.Fatal(err)
	}
	const dir = "ckpt/fsr"
	if _, err := c.Checkpoint(job, core.Options{Mode: core.Migrate, FlushTo: dir}); err != nil {
		t.Fatal(err)
	}

	files := c.FS.List(dir)
	if len(files) != 4 {
		t.Fatalf("flushed %d images, want 4", len(files))
	}
	victim := files[0]
	orig, err := c.FS.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), orig...)
	bad[len(bad)/2] ^= 0x01
	if err := c.FS.WriteFile(victim, bad); err != nil {
		t.Fatal(err)
	}

	targets := c.Nodes
	_, err = c.RestartFromFS(job, dir, targets)
	if !errors.Is(err, ErrCorruptImage) {
		t.Fatalf("err = %v, want ErrCorruptImage", err)
	}
	// The error names the pod whose image is corrupt.
	podName := strings.TrimSuffix(victim[strings.LastIndex(victim, "/")+1:], ".img")
	if !strings.Contains(err.Error(), podName) {
		t.Fatalf("error %q does not name pod %s", err, podName)
	}
	// Validation happens before planning: nothing was claimed or built.
	for _, p := range job.Pods {
		if c.Net.Claimed(p.VirtualIP()) {
			t.Fatalf("VIP %v claimed despite refused restart", p.VirtualIP())
		}
	}

	// Repair the image; the same restart now succeeds and the job
	// completes identically to the undisturbed reference.
	if err := c.FS.WriteFile(victim, orig); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RestartFromFS(job, dir, targets); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunJob(job, 30*60*sim.Second); err != nil {
		t.Fatal(err)
	}
	if got := job.Result(); got != want {
		t.Fatalf("result %v != reference %v", got, want)
	}
}

// TestLoadImagesRefusesTruncatedImage truncates a checkpoint image
// mid-stream — the flushed version-3 record, and the frozen version-2
// and version-1 samples (internal/ckpt/testdata/formats) in its place —
// and asserts that LoadImages and RestartFromFS refuse it with
// ErrCorruptImage naming the pod, while the intact record of every
// version loads fine.
func TestLoadImagesRefusesTruncatedImage(t *testing.T) {
	c := New(Config{Nodes: 2, Seed: 23})
	job, err := c.Launch(JobSpec{App: "cpi", Endpoints: 2, Work: 0.01, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Drive(func() bool { return job.Progress() > 0.2 }, 30*60*sim.Second); err != nil {
		t.Fatal(err)
	}
	const dir = "ckpt/tr"
	if _, err := c.Checkpoint(job, core.Options{Mode: core.Migrate, FlushTo: dir}); err != nil {
		t.Fatal(err)
	}
	files := c.FS.List(dir)
	if len(files) != 2 {
		t.Fatalf("flushed %d images, want 2", len(files))
	}
	victim := files[0]
	podName := strings.TrimSuffix(victim[strings.LastIndex(victim, "/")+1:], ".img")
	v3, err := c.FS.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	frozen := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("..", "ckpt", "testdata", "formats", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	expectCorrupt := func(label string) {
		t.Helper()
		if _, err := c.LoadImages(dir); !errors.Is(err, ErrCorruptImage) {
			t.Fatalf("%s: LoadImages err = %v, want ErrCorruptImage", label, err)
		} else if !strings.Contains(err.Error(), podName) {
			t.Fatalf("%s: error %q does not name pod %s", label, err, podName)
		}
		if _, err := c.RestartFromFS(job, dir, c.Nodes); !errors.Is(err, ErrCorruptImage) {
			t.Fatalf("%s: RestartFromFS err = %v, want ErrCorruptImage", label, err)
		}
	}

	for _, tc := range []struct {
		label string
		whole []byte
	}{
		{"v3", v3},
		{"v2", frozen("full.v2")},
		{"v1", frozen("full.v1")},
	} {
		// The intact record of either version loads.
		if err := c.FS.WriteFile(victim, tc.whole); err != nil {
			t.Fatal(err)
		}
		if _, err := c.LoadImages(dir); err != nil {
			t.Fatalf("%s intact: %v", tc.label, err)
		}
		// Truncations at several depths — inside the header, mid-frame,
		// and just short of the trailer — all refuse with the pod named.
		for _, keep := range []int{4, len(tc.whole) / 2, len(tc.whole) - 1} {
			if err := c.FS.WriteFile(victim, tc.whole[:keep]); err != nil {
				t.Fatal(err)
			}
			expectCorrupt(fmt.Sprintf("%s truncated to %d/%d bytes", tc.label, keep, len(tc.whole)))
		}
	}
}

func TestLoadImagesValidatesEveryFile(t *testing.T) {
	c := New(Config{Nodes: 2, Seed: 22})
	if _, err := c.LoadImages("nope"); err == nil {
		t.Fatal("empty directory accepted")
	}
	job, err := c.Launch(JobSpec{App: "cpi", Endpoints: 2, Work: 0.01, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Drive(func() bool { return job.Progress() > 0.2 }, 30*60*sim.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkpoint(job, core.Options{Mode: core.Snapshot, FlushTo: "ckpt/li"}); err != nil {
		t.Fatal(err)
	}
	images, err := c.LoadImages("ckpt/li")
	if err != nil {
		t.Fatal(err)
	}
	if len(images) != 2 {
		t.Fatalf("loaded %d images, want 2", len(images))
	}
	// Sorted by pod name for deterministic placement.
	if images[0].PodName > images[1].PodName {
		t.Fatalf("images not sorted: %s, %s", images[0].PodName, images[1].PodName)
	}
}
