package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"zapc/internal/memfs"
	"zapc/internal/netstack"
	"zapc/internal/pod"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

// mkRawCluster is mkCluster without the testing.T (usable from fuzz
// seeding and benchmarks).
func mkRawCluster(nodes int) *cluster {
	w := sim.NewWorld(99)
	c := &cluster{w: w, nw: netstack.NewNetwork(w), fs: memfs.New()}
	for i := 0; i < nodes; i++ {
		c.nodes = append(c.nodes, vos.NewNode(w, "node"+string(rune('A'+i)), 2))
	}
	return c
}

// rawFreeze suspends a pod and drives the world to quiescence without a
// testing.T.
func rawFreeze(c *cluster, p *pod.Pod) {
	p.Suspend()
	p.BlockNetwork()
	for !p.Quiescent() && c.w.Step() {
	}
}

// testVIP hands out distinct virtual IPs for helper-built pods (VIPs
// are unique per network; tests here never run in parallel).
var testVIP uint32 = 100

func nextVIP() netstack.IP {
	testVIP++
	return netstack.IP(testVIP)
}

// mkBusyPod builds a pod with n worker processes, each owning a private
// heap region, advanced a few virtual milliseconds and then frozen.
func mkBusyPod(t *testing.T, c *cluster, name string, node int, n int) *pod.Pod {
	t.Helper()
	p, err := pod.New(name, c.nodes[node], c.nw, c.fs, nextVIP())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		proc := p.AddProcess(&worker{Limit: 200 + 50*i})
		heap := make([]byte, 256+64*i)
		for j := range heap {
			heap[j] = byte(i*31 + j)
		}
		proc.SetRegion("heap", heap)
	}
	c.w.RunUntil(c.w.Now() + sim.Time(5*sim.Millisecond))
	c.freeze(t, p)
	return p
}

func TestParallelCheckpointMatchesSequential(t *testing.T) {
	c := mkCluster(t, 1)
	p := mkBusyPod(t, c, "par", 0, 6)

	seq, err := CheckpointPodWith(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, 16} {
		par, err := CheckpointPodWith(p, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(rawOf(seq), rawOf(par)) {
			t.Fatalf("workers=%d: parallel capture differs from sequential", workers)
		}
	}
}

func TestCheckpointPodsSharedPool(t *testing.T) {
	c := mkCluster(t, 2)
	pods := []*pod.Pod{
		mkBusyPod(t, c, "a", 0, 3),
		mkBusyPod(t, c, "b", 1, 1),
		mkBusyPod(t, c, "c", 0, 5),
	}
	imgs, err := CheckpointPods(pods, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != len(pods) {
		t.Fatalf("got %d images for %d pods", len(imgs), len(pods))
	}
	for i, p := range pods {
		want, err := CheckpointPod(p)
		if err != nil {
			t.Fatal(err)
		}
		if imgs[i].PodName != p.Name() {
			t.Fatalf("image %d is for pod %q, want %q", i, imgs[i].PodName, p.Name())
		}
		if !bytes.Equal(rawOf(want), rawOf(imgs[i])) {
			t.Fatalf("pod %q: pooled capture differs from sequential", p.Name())
		}
	}
}

func TestCheckpointPodsRejectsRunningPod(t *testing.T) {
	c := mkCluster(t, 1)
	frozen := mkBusyPod(t, c, "f", 0, 2)
	running, err := pod.New("r", c.nodes[0], c.nw, c.fs, nextVIP())
	if err != nil {
		t.Fatal(err)
	}
	running.AddProcess(&worker{Limit: 1000})
	c.w.RunUntil(c.w.Now() + sim.Time(sim.Millisecond))
	if _, err := CheckpointPods([]*pod.Pod{frozen, running}, 4); !errors.Is(err, ErrNotQuiescent) {
		t.Fatalf("err = %v, want ErrNotQuiescent", err)
	}
}

func TestFanOutFirstErrorByIndex(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	for _, workers := range []int{1, 4} {
		err := fanOut(16, workers, func(i int) error {
			switch i {
			case 3:
				return errA
			case 11:
				return errB
			default:
				return nil
			}
		})
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: err = %v, want first error by index", workers, err)
		}
	}
}

func TestFanOutRunsEveryJob(t *testing.T) {
	const n = 100
	hit := make([]bool, n)
	if err := fanOut(n, 7, func(i int) error {
		hit[i] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, h := range hit {
		if !h {
			t.Fatalf("job %d never ran", i)
		}
	}
}

func TestNormWorkers(t *testing.T) {
	for _, tc := range []struct{ workers, jobs, want int }{
		{1, 10, 1},
		{4, 2, 2},
		{4, 10, 4},
		{-1, 1, 1},
	} {
		if got := normWorkers(tc.workers, tc.jobs); got != tc.want {
			t.Errorf("normWorkers(%d,%d) = %d, want %d", tc.workers, tc.jobs, got, tc.want)
		}
	}
	if got := normWorkers(0, 1000); got < 1 {
		t.Errorf("normWorkers(0,1000) = %d", got)
	}
}

// FuzzDecodeImage feeds arbitrary bytes to the pod-image and
// delta-record decoders: they must return errors, never panic, and a
// successfully decoded image must re-encode decodably.
func FuzzDecodeImage(f *testing.F) {
	// Seed with genuine version-3 records of both kinds.
	c := mkRawCluster(1)
	p, _ := pod.New("seed", c.nodes[0], c.nw, c.fs, 7)
	proc := p.AddProcess(&worker{Limit: 50})
	proc.SetRegion("heap", []byte("0123456789abcdef"))
	c.w.RunUntil(sim.Time(2 * sim.Millisecond))
	rawFreeze(c, p)
	tr := NewTracker()
	fullPend, err := tr.Capture(p, 1, true)
	if err != nil {
		f.Fatal(err)
	}
	fullPend.Commit()
	proc.SetRegion("heap", []byte("fedcba9876543210"))
	deltaPend, err := tr.Capture(p, 1, false)
	if err != nil {
		f.Fatal(err)
	}
	var fullWire, deltaWire bytes.Buffer
	if _, err := fullPend.Stream(&fullWire); err != nil {
		f.Fatal(err)
	}
	if _, err := deltaPend.Stream(&deltaWire); err != nil {
		f.Fatal(err)
	}
	f.Add(fullWire.Bytes())
	f.Add(deltaWire.Bytes())
	// Version-1 and version-2 records must keep decoding too; nothing
	// writes them any more, so the seeds are the frozen samples.
	for _, name := range []string{"full.v1", "delta.v1", "full.v2", "delta.v2"} {
		f.Add(fixture(f, name))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x5a}, 64))
	// Truncated records: every decode path must error, never hang.
	f.Add(fullWire.Bytes()[:fullWire.Len()*2/3])
	v2 := fixture(f, "full.v2")
	f.Add(v2[:len(v2)*2/3])

	f.Fuzz(func(t *testing.T, data []byte) {
		if img, err := DecodeImage(data); err == nil {
			var re bytes.Buffer
			if _, err := img.EncodeStream(&re); err != nil {
				t.Fatalf("streaming re-encode failed: %v", err)
			}
			if _, err := DecodeImage(re.Bytes()); err != nil {
				t.Fatalf("re-decode of streamed image failed: %v", err)
			}
		}
		if d, err := DecodeDelta(data); err == nil {
			var re bytes.Buffer
			if _, err := d.EncodeStream(&re); err != nil {
				t.Fatalf("streaming re-encode failed: %v", err)
			}
			if _, err := DecodeDelta(re.Bytes()); err != nil {
				t.Fatalf("re-decode of streamed delta failed: %v", err)
			}
		}
		_, _ = VerifyImage(data)
	})
}

// Benchmarks for the capture+encode pipeline at several pool widths;
// the cmd/zapc-bench trajectory uses the same shape.
func BenchmarkCheckpointEncode(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			c := mkRawCluster(1)
			p, _ := pod.New("bench", c.nodes[0], c.nw, c.fs, 1)
			for i := 0; i < 8; i++ {
				proc := p.AddProcess(&worker{Limit: 100})
				proc.SetRegion("heap", make([]byte, 256<<10))
			}
			c.w.RunUntil(sim.Time(2 * sim.Millisecond))
			rawFreeze(c, p)
			var bytesOut int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				img, err := CheckpointPodWith(p, workers)
				if err != nil {
					b.Fatal(err)
				}
				st, err := img.EncodeStream(io.Discard)
				if err != nil {
					b.Fatal(err)
				}
				bytesOut = st.Raw
			}
			b.SetBytes(bytesOut)
		})
	}
}
