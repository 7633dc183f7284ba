package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"zapc/internal/imgfmt"
	"zapc/internal/netckpt"
	"zapc/internal/netstack"
	"zapc/internal/vos"
)

// Golden records of every on-disk format version. Nothing writes
// versions 1 and 2 any more, so these frozen samples are what keeps
// their decoders honest; testdata/formats/README.md says how they were
// made. The version-3 samples pin the writer's output byte for byte.

// fixtureDir holds the frozen records.
const fixtureDir = "testdata/formats"

// fixtureSHA256 pins every frozen record: a fixture that changes is a
// format change, not a test update.
var fixtureSHA256 = map[string]string{
	"full.v1":   "61a84617dd1caf9b02b9df875875a0a56d888c7ea0d8225d1b25b553cc9f923e",
	"full.v2":   "c8a5593885ef0aba358a7fd93404196cc67eeac2b20e7ee14ffdaf61a0587ff4",
	"full.v3":   "bd1e66db7b70a449377eb681e6b1a8499680ecf5805697267c5d5bf4a8966072",
	"delta.v1":  "f228d58ae9ece7a3ac14d89bf6172f20e507844476d7c2931ec4cd1f999682c3",
	"delta.v2":  "88d3f8a3a03617198258ada8ea3fb0b846fcce3d468cf7af66194742990515c6",
	"delta.v3":  "3614a90a2f99f04e2e124da389704f3d032afe36ff7718ded19420245846d98b",
	"delta2.v3": "e37f79c1ff5127a0f3627062a3a667db024e24a74a565e05792c697978f8e712",
	"mixed1.v2": "d28c58f518575322da9a22eff038e894b4b5c04c8c4778fcd4c7138bfb217185",
	"mixed2.v3": "29a04f12f86308d1eaa138261d86c8b79e59dec1fcc9e264cc1a7c652b96c555",
	"fields.v2": "13601bcd73ad1b3f465a073ae1a2c31deb13b9ed0d26c5b5ce2696e9f3b60d44",
}

// fixture reads one frozen record.
func fixture(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(fixtureDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// rawOf is the byte-for-byte comparison form of an image: a version-3
// encode with every frame stored RAW.
func rawOf(img *Image) []byte {
	var b bytes.Buffer
	img.EncodeStreamWith(&b, imgfmt.StreamOpts{NoCompress: true}) // a bytes.Buffer never fails
	return b.Bytes()
}

// wire encodes an image or delta record with the production writer.
func wire(t testing.TB, encode func(io.Writer) (StreamStats, error)) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := encode(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// fixtureBytes fills n bytes: the first rand bytes from a fixed
// xorshift sequence (incompressible), the rest a short repeating
// pattern (compressible), so a version-3 encode stores both RAW and
// compressed frames.
func fixtureBytes(n, rand int, salt byte) []byte {
	out := make([]byte, n)
	x := uint32(0x9e3779b9) ^ uint32(salt)
	for i := range out {
		if i < rand {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			out[i] = byte(x)
		} else {
			out[i] = "fixture-"[i%8] ^ salt
		}
	}
	return out
}

// fixtureProg is a program-state blob in the in-memory image format,
// as Program.Save produces it.
func fixtureProg(step uint64, name string) []byte {
	e := imgfmt.NewEncoder()
	e.Uint(1, step)
	e.String(2, name)
	return e.Finish()
}

// fixtureGens builds the three generations of one pod the frozen
// records were encoded from. Generation 0 has two processes, a 128 KiB
// region (so every encoding spans several frames) and two sockets with
// queued data. Generation 1 rewrites small regions, changes program
// state and adds a process; generation 2 drops that process and a
// region.
func fixtureGens() [3]*Image {
	const vip = netstack.IP(0x0a000007)
	net := func(gen byte) *netckpt.NetImage {
		return &netckpt.NetImage{PodIP: vip, Sockets: []netckpt.SocketRecord{{
			Slot: 0, CreateSeq: 3, Proto: netstack.TCP, State: netstack.StateEstablished,
			Local:  netstack.Addr{IP: vip, Port: 5000},
			Remote: netstack.Addr{IP: 0x0a000009, Port: 41000},
			Opts:   []netstack.OptValue{{Opt: netstack.SO_RCVBUF, Val: 65536}},
			// Received bytes the application has not read yet, and an
			// unacknowledged send queue.
			RecvData:   fixtureBytes(2000, 0, 'r'+gen),
			OOBData:    []byte{'!'},
			SendChunks: []netstack.Chunk{{Data: fixtureBytes(1500, 700, 's'+gen)}, {Data: []byte("urgent"), OOB: true}},
			PCB:        netstack.PCB{SndUna: 1000, SndNxt: 2506, RcvNxt: 7777 + uint64(gen)},
			// Not pending on any listener.
			PendingAcceptOf: -1,
		}, {
			Slot: 1, CreateSeq: 4, Proto: netstack.UDP, State: netstack.StateBound,
			Local:           netstack.Addr{IP: vip, Port: 6000},
			Datagrams:       []netstack.Datagram{{From: netstack.Addr{IP: 0x0a000009, Port: 6001}, Data: []byte("ping")}},
			PendingAcceptOf: -1,
		}}}
	}
	g0 := &Image{
		PodName: "fixture", VIP: vip, VirtualTime: 123456789, Net: net(0),
		Procs: []ProcImage{{
			VPID: 1, Kind: "fixture.solver", ProgData: fixtureProg(10, "solver"),
			Regions: []vos.Region{
				{Name: "heap", Data: fixtureBytes(128<<10, 64<<10, 'h')},
				{Name: "scratch", Data: fixtureBytes(512, 512, 'c')},
			},
			FDs: []FDEntry{{FD: 3, Slot: 0}, {FD: 4, Slot: 1}},
		}, {
			VPID: 2, Kind: "fixture.io", ProgData: fixtureProg(20, "io"),
			Regions: []vos.Region{{Name: "stack", Data: fixtureBytes(4096, 256, 'k')}},
			FDs:     []FDEntry{{FD: 3, Slot: 0}},
		}},
	}
	g1 := &Image{
		PodName: "fixture", VIP: vip, VirtualTime: 223456789, Net: net(1),
		Procs: []ProcImage{{
			VPID: 1, Kind: "fixture.solver", ProgData: fixtureProg(11, "solver"),
			Regions: []vos.Region{
				g0.Procs[0].Regions[0],
				{Name: "scratch", Data: fixtureBytes(512, 512, 'C')},
			},
			FDs: g0.Procs[0].FDs,
		}, {
			VPID: 2, Kind: "fixture.io", ProgData: g0.Procs[1].ProgData,
			Regions: []vos.Region{{Name: "stack", Data: fixtureBytes(4096, 256, 'K')}},
			FDs:     []FDEntry{{FD: 3, Slot: 0}, {FD: 5, Slot: 1}},
		}, {
			VPID: 3, Kind: "fixture.helper", ProgData: fixtureProg(1, "helper"),
			Regions: []vos.Region{{Name: "heap", Data: fixtureBytes(1024, 64, 'p')}},
		}},
	}
	g2 := &Image{
		PodName: "fixture", VIP: vip, VirtualTime: 323456789, Net: net(2),
		Procs: []ProcImage{{
			VPID: 1, Kind: "fixture.solver", ProgData: fixtureProg(12, "solver"),
			Regions: []vos.Region{g0.Procs[0].Regions[0]},
			FDs:     g0.Procs[0].FDs,
		}, {
			VPID: 2, Kind: "fixture.io", ProgData: g0.Procs[1].ProgData,
			Regions: []vos.Region{{Name: "stack", Data: fixtureBytes(4096, 256, 'Q')}},
			FDs:     g1.Procs[1].FDs,
		}},
	}
	return [3]*Image{g0, g1, g2}
}

// fixtureDelta diffs generation cur against prev, as the incremental
// tracker does.
func fixtureDelta(cur, prev *Image, seq uint64, parentSum uint32) *DeltaImage {
	return buildDelta(cur, prev, nil, seq, parentSum)
}

func TestFormatFixturesPinned(t *testing.T) {
	for name, want := range fixtureSHA256 {
		sum := sha256.Sum256(fixture(t, name))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: sha256 %s, want %s", name, got, want)
		}
	}
}

// v2Payload sums the frame payloads of a version-2 record: its logical
// size.
func v2Payload(t *testing.T, rec []byte) int64 {
	t.Helper()
	var sum int64
	rest := rec[len(imgfmt.Magic)+1:]
	for {
		n, k := binary.Uvarint(rest)
		if k <= 0 || len(rest) < k+int(n)+4 {
			t.Fatal("malformed version-2 frame")
		}
		if n == 0 {
			return sum
		}
		sum += int64(n)
		rest = rest[k+int(n)+4:]
	}
}

// TestFormatFixturesFull: the full image decodes identically from every
// version, Bytes reports the logical size the version-2 frames carry,
// and the version-3 writer reproduces full.v3 byte for byte — from the
// builder and from every decoded twin.
func TestFormatFixturesFull(t *testing.T) {
	g0 := fixtureGens()[0]
	logical := v2Payload(t, fixture(t, "full.v2"))
	v3 := fixture(t, "full.v3")
	if got := wire(t, g0.EncodeStream); !bytes.Equal(got, v3) {
		t.Fatalf("v3 writer no longer reproduces full.v3 (%d vs %d bytes)", len(got), len(v3))
	}
	for _, name := range []string{"full.v1", "full.v2", "full.v3"} {
		img, err := DecodeImage(fixture(t, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(rawOf(img), rawOf(g0)) {
			t.Errorf("%s decodes to a different image than its v3 twin", name)
		}
		if got := wire(t, img.EncodeStream); !bytes.Equal(got, v3) {
			t.Errorf("%s: v3 re-encode differs from full.v3", name)
		}
		if img.Bytes() != logical {
			t.Errorf("%s: Bytes %d, want the version-2 payload's %d", name, img.Bytes(), logical)
		}
	}
}

// TestFormatFixturesDelta: every version's delta links to its own
// version's full record by CRC, decodes to the same delta as its v3
// twin once that link is normalized, and the version-3 writer
// reproduces delta.v3 and delta2.v3 byte for byte. Each version's
// base-plus-delta chain reconstructs generation 1.
func TestFormatFixturesDelta(t *testing.T) {
	g := fixtureGens()
	fullSum := crc32.ChecksumIEEE(fixture(t, "full.v3"))
	v3 := fixture(t, "delta.v3")
	if got := wire(t, fixtureDelta(g[1], g[0], 1, fullSum).EncodeStream); !bytes.Equal(got, v3) {
		t.Fatal("v3 writer no longer reproduces delta.v3")
	}
	d2 := fixtureDelta(g[2], g[1], 2, crc32.ChecksumIEEE(v3))
	if got := wire(t, d2.EncodeStream); !bytes.Equal(got, fixture(t, "delta2.v3")) {
		t.Fatal("v3 writer no longer reproduces delta2.v3")
	}
	for _, ver := range []string{"v1", "v2", "v3"} {
		full, rec := fixture(t, "full."+ver), fixture(t, "delta."+ver)
		d, err := DecodeDelta(rec)
		if err != nil {
			t.Fatalf("delta.%s: %v", ver, err)
		}
		if d.Seq != 1 || d.ParentSum != crc32.ChecksumIEEE(full) {
			t.Errorf("delta.%s: seq %d, parent %08x, want 1 and the CRC of full.%s", ver, d.Seq, d.ParentSum, ver)
		}
		d.ParentSum = fullSum
		if got := wire(t, d.EncodeStream); !bytes.Equal(got, v3) {
			t.Errorf("delta.%s decodes to a different delta than its v3 twin", ver)
		}
		img, err := ReconstructChain([][]byte{full, rec})
		if err != nil {
			t.Fatalf("%s chain: %v", ver, err)
		}
		if !bytes.Equal(rawOf(img), rawOf(g[1])) {
			t.Errorf("%s chain does not reconstruct generation 1", ver)
		}
	}
	img, err := ReconstructChain([][]byte{fixture(t, "full.v3"), v3, fixture(t, "delta2.v3")})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawOf(img), rawOf(g[2])) {
		t.Error("v3 chain does not reconstruct generation 2")
	}
}

// TestV1FixtureBitFlipsDetected keeps the version-1 decoder's integrity
// property now that no v1 record is ever written fresh: a single-bit
// flip anywhere in delta.v1, and at a spread of offsets across full.v1
// (its first 128 and last 64 bytes, every 509th byte between), is
// always rejected.
func TestV1FixtureBitFlipsDetected(t *testing.T) {
	full := fixture(t, "full.v1")
	var fullPos []int
	for pos := 0; pos < len(full); pos++ {
		if pos < 128 || pos >= len(full)-64 || pos%509 == 0 {
			fullPos = append(fullPos, pos)
		}
	}
	delta := fixture(t, "delta.v1")
	deltaPos := make([]int, len(delta))
	for i := range deltaPos {
		deltaPos[i] = i
	}
	for _, tc := range []struct {
		name   string
		data   []byte
		pos    []int
		decode func([]byte) error
	}{
		{"full.v1", full, fullPos, func(b []byte) error { _, err := decodeImageV1(b); return err }},
		{"delta.v1", delta, deltaPos, func(b []byte) error { _, err := decodeDeltaV1(b); return err }},
	} {
		bad := append([]byte(nil), tc.data...)
		for _, pos := range tc.pos {
			for bit := 0; bit < 8; bit++ {
				bad[pos] ^= 1 << bit
				if tc.decode(bad) == nil {
					t.Fatalf("%s: flip of bit %d at byte %d undetected", tc.name, bit, pos)
				}
				bad[pos] ^= 1 << bit
			}
		}
	}
}
