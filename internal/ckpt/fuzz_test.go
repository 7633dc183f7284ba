package ckpt

import (
	"bytes"
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
	fullPend, err := tr.Capture(p, nil, true)
	if err != nil {
		f.Fatal(err)
	}
	fullPend.Commit()
	proc.SetRegion("heap", []byte("fedcba9876543210"))
	deltaPend, err := tr.Capture(p, nil, false)
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

// BenchmarkCheckpointEncode times the capture+encode pipeline of one
// frozen 8-process pod: sequential capture, then a version-3 stream
// encode, over logical bytes.
func BenchmarkCheckpointEncode(b *testing.B) {
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
		img, err := CheckpointPod(p)
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
}
