package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"zapc/internal/ckpt"
	"zapc/internal/cluster"
	"zapc/internal/core"
	"zapc/internal/imgfmt"
	"zapc/internal/sim"
	"zapc/internal/supervisor"
)

// workload is one seeded scenario. pass runs it once (set-up, then the
// measured part; only set-up when setupOnly) and reference computes the
// results its jobs must reach, from same-seed runs without checkpoints.
type workload struct {
	name, why string
	pass      func(seed int64, ht *hostTrace, setupOnly bool) (*passResult, error)
	reference func(seed int64) ([]jobOutcome, error)
}

var workloads = []workload{
	{"ckpt-dense", "bt on 4 pods, seeded ~2:1 ballast: large full checkpoints into the dedup store, nothing read back; stresses capture, codec, dedup", passDense, refDense},
	{"failover-bt", "supervised bt with 8 node crashes: read-heavy validation, chain load, reconstruct and restart on the production path", passFailover, refFailover},
	{"coord-256", "cpi on 256 pods, fan-out 16, no flush: snapshots dominated by coordination, quiescence and the sim loop, not the codec", passCoord, refCoord},
	{"standby-cpi", "supervised cpi with a warm standby, one promotion per episode: replication per generation and the promotion path", passStandby, refStandby},
}

const (
	work = 0.25
	// btScale puts ~6 MB of logical state in each bt pod.
	btScale = 1.0 / 16

	denseCkpts = 12

	failoverSpares  = 8
	failoverCrashes = 8
	// failoverLast is the progress of the last crash point; the points
	// are spaced evenly from the first commit up to it.
	failoverLast = 0.9

	coordPods      = 256
	coordFanout    = 16
	coordPerMsg    = 25 * sim.Microsecond
	coordScale     = 0.002
	coordSnapshots = 6
	coordSpacing   = 40 * sim.Millisecond

	standbyEpisodes = 8
)

// supervisedPolicy is the production supervision loop of the two
// failover workloads.
var supervisedPolicy = supervisor.Policy{
	HeartbeatInterval: 50 * sim.Millisecond,
	CheckpointEvery:   250 * sim.Millisecond,
	Incremental:       true,
	Retain:            2,
	Workers:           2,
}

func btSpec() cluster.JobSpec {
	return cluster.JobSpec{App: "bt", Endpoints: 4, Work: work, Scale: btScale}
}

// seededBallast returns n bytes of alternating 4 KiB runs: random
// bytes, then one random byte repeated. LZ4 leaves the first kind
// as is and collapses the second, so the whole compresses about 2:1.
func seededBallast(rng *rand.Rand, n int) []byte {
	const run = 4 << 10
	buf := make([]byte, n)
	for off := 0; off < n; off += run {
		chunk := buf[off:min(off+run, n)]
		if (off/run)%2 == 0 {
			rng.Read(chunk)
		} else {
			b := byte(rng.Intn(256))
			for i := range chunk {
				chunk[i] = b
			}
		}
	}
	return buf
}

// wireRatio is the v3 frame encoding's wire/logical ratio over data.
func wireRatio(data []byte) (float64, error) {
	enc := imgfmt.NewStreamEncoder(io.Discard)
	enc.Bytes(1, data)
	if err := enc.Close(); err != nil {
		return 0, err
	}
	return float64(enc.Written()) / float64(enc.Logical()), nil
}

// denseRig launches bt and, once each process has installed its
// ballast, overwrites it at the same length with seeded bytes.
func denseRig(p *passResult, ht *hostTrace, seed int64, dedup bool) (*rig, error) {
	r, err := newRig(p, ht, clusterConfig(4, seed, btScale), btSpec(), 0, dedup)
	if err != nil {
		return nil, err
	}
	if err := r.settle(); err != nil {
		return nil, err
	}
	procs, err := r.procs()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for _, proc := range procs {
		data, _ := proc.Region("data")
		proc.SetRegion("data", seededBallast(rng, len(data)))
	}
	return r, nil
}

func passDense(seed int64, ht *hostTrace, setupOnly bool) (*passResult, error) {
	p := newPass()
	t0 := time.Now()
	r, err := denseRig(p, ht, seed, true)
	if err != nil {
		return nil, err
	}
	p.setup = append(p.setup, time.Since(t0).Seconds())
	if setupOnly {
		return p, nil
	}
	if err := r.describeInputs(); err != nil {
		return nil, err
	}
	root := r.startMeasure()
	t1 := time.Now()
	var newest *core.CheckpointResult
	var dirs []string
	var lastDone time.Time
	for i := 0; i < denseCkpts; i++ {
		target := float64(i+1) / float64(denseCkpts+1)
		if err := r.drive(func() bool { return r.job.Progress() >= target || r.job.Finished() }); err != nil {
			return nil, err
		}
		if r.job.Finished() {
			return nil, fmt.Errorf("ckpt-dense: job finished before checkpoint %d", i)
		}
		dir := fmt.Sprintf("dense/g%02d", i)
		res, err := r.checkpoint(core.Options{Mode: core.Snapshot, Workers: 2, FlushTo: dir})
		if err != nil {
			continue
		}
		if !lastDone.IsZero() {
			p.addHost("gen_host_ms", time.Since(lastDone))
		}
		lastDone = time.Now()
		newest = res
		dirs = append(dirs, dir)
		if len(dirs) > 2 {
			r.removeGen(dirs[0])
			dirs = dirs[1:]
		}
	}
	if err := r.drive(r.job.Finished); err != nil {
		return nil, err
	}
	p.run = time.Since(t1).Seconds()
	ht.stopRoot(root)
	r.finishCounts()
	if newest == nil {
		p.check("newest generation reconstructs", false, "no checkpoint succeeded")
	} else {
		r.checkNewest(newest, dirs[len(dirs)-1])
	}
	return p, nil
}

// removeGen drops one generation the way retention does: remove its
// records, then sweep the blocks nothing references any more.
func (r *rig) removeGen(dir string) {
	var err error
	for _, f := range r.upper.List(dir) {
		if rerr := r.upper.Remove(f); rerr != nil && err == nil {
			err = rerr
		}
	}
	r.upper.Sweep()
	r.p.check("retention removes "+dir, err == nil, "%v", err)
}

// checkNewest reconstructs every pod of the newest generation from the
// store and compares its v3 encoding with the image the checkpoint
// call returned.
func (r *rig) checkNewest(res *core.CheckpointResult, dir string) {
	store := r.c.DedupStore()
	var pods []*ckpt.Image
	for _, img := range res.Images {
		pods = append(pods, img)
	}
	sort.Slice(pods, func(i, j int) bool { return pods[i].PodName < pods[j].PodName })
	for _, img := range pods {
		path := dir + "/" + img.PodName + ".img"
		got, err := ckpt.ReconstructChainFrom(1, func(int) (io.ReadCloser, error) { return store.Open(path) })
		var want, have bytes.Buffer
		if err == nil {
			_, err = img.EncodeStream(&want)
		}
		if err == nil {
			_, err = got.EncodeStream(&have)
		}
		if err == nil && !bytes.Equal(want.Bytes(), have.Bytes()) {
			err = fmt.Errorf("v3 encodings differ (%d vs %d bytes)", want.Len(), have.Len())
		}
		r.p.check("reconstruct "+path, err == nil, "%v", err)
	}
}

func refDense(seed int64) ([]jobOutcome, error) {
	r, err := denseRig(newPass(), nil, seed, false)
	if err != nil {
		return nil, err
	}
	return r.runToEnd()
}

// runToEnd drives an unsupervised job to completion for a reference
// result.
func (r *rig) runToEnd() ([]jobOutcome, error) {
	if err := r.drive(r.job.Finished); err != nil {
		return nil, err
	}
	return []jobOutcome{{seed: r.seed, result: r.job.Result()}}, nil
}

// until wraps a supervised-run condition so that a halted supervisor
// or a finished job also ends the drive.
func (r *rig) until(cond func() bool) error {
	return r.drive(func() bool { return r.job.Finished() || r.sup.Err() != nil || cond() })
}

func passFailover(seed int64, ht *hostTrace, setupOnly bool) (*passResult, error) {
	p := newPass()
	t0 := time.Now()
	r, err := newRig(p, ht, clusterConfig(4, seed, btScale), btSpec(), failoverSpares, true)
	if err != nil {
		return nil, err
	}
	if err := r.settle(); err != nil {
		return nil, err
	}
	if err := r.supervise(supervisedPolicy); err != nil {
		return nil, err
	}
	p.setup = append(p.setup, time.Since(t0).Seconds())
	if setupOnly {
		return p, nil
	}
	if err := r.describeInputs(); err != nil {
		return nil, err
	}
	root := r.startMeasure()
	t1 := time.Now()
	if err := r.until(func() bool { return r.commits >= 1 }); err != nil {
		return nil, err
	}
	p0 := r.job.Progress()
	settled := r.commits
	for k := 0; k < failoverCrashes; k++ {
		target := p0 + (failoverLast-p0)*float64(k+1)/float64(failoverCrashes)
		// Each crash waits for its progress point and for a commit
		// after the previous failover.
		if err := r.until(func() bool { return r.job.Progress() >= target && r.commits > settled }); err != nil {
			return nil, err
		}
		if r.job.Finished() || r.sup.Err() != nil {
			break
		}
		r.crash(r.job.Pods[k%len(r.job.Pods)].Node())
		if err := r.until(func() bool { return r.failovers > k }); err != nil {
			return nil, err
		}
		settled = r.commits
	}
	if err := r.until(func() bool { return false }); err != nil {
		return nil, err
	}
	p.run = time.Since(t1).Seconds()
	ht.stopRoot(root)
	r.finishSupervised()
	r.finishCounts()
	p.check("crash points reached", r.crashes == failoverCrashes, "%d of %d crashes before the job ended", r.crashes, failoverCrashes)
	p.check("supervisor error is nil", r.sup.Err() == nil, "%v", r.sup.Err())
	p.check("failovers equal crashes", r.failovers == r.crashes, "%d failovers, %d crashes", r.failovers, r.crashes)
	return p, nil
}

func refFailover(seed int64) ([]jobOutcome, error) {
	r, err := newRig(newPass(), nil, clusterConfig(4, seed, btScale), btSpec(), failoverSpares, false)
	if err != nil {
		return nil, err
	}
	return r.runToEnd()
}

func coordRig(p *passResult, ht *hostTrace, seed int64) (*rig, error) {
	cfg := clusterConfig(coordPods, seed, coordScale)
	cfg.Costs.CtrlPerMsg = coordPerMsg
	cfg.Fanout = coordFanout
	r, err := newRig(p, ht, cfg, cluster.JobSpec{App: "cpi", Endpoints: coordPods, Work: work, Scale: coordScale}, 0, false)
	if err != nil {
		return nil, err
	}
	return r, r.settle()
}

func passCoord(seed int64, ht *hostTrace, setupOnly bool) (*passResult, error) {
	p := newPass()
	t0 := time.Now()
	r, err := coordRig(p, ht, seed)
	if err != nil {
		return nil, err
	}
	p.setup = append(p.setup, time.Since(t0).Seconds())
	if setupOnly {
		return p, nil
	}
	if err := r.describeInputs(); err != nil {
		return nil, err
	}
	root := r.startMeasure()
	t1 := time.Now()
	start := r.c.W.Now()
	var lastDone time.Time
	for i := 0; i < coordSnapshots; i++ {
		at := start + sim.Time(i)*sim.Time(coordSpacing)
		if err := r.drive(func() bool { return r.c.W.Now() >= at || r.job.Finished() }); err != nil {
			return nil, err
		}
		// A snapshot of finished pods skips the quiescence and network
		// work this workload exists to measure.
		p.check(fmt.Sprintf("snapshot %d precedes job end", i), !r.job.Finished(), "job finished at %v", r.c.W.Now())
		if r.job.Finished() {
			break
		}
		if _, err := r.checkpoint(core.Options{Mode: core.Snapshot, Workers: 2}); err != nil {
			continue
		}
		if !lastDone.IsZero() {
			p.addHost("gen_host_ms", time.Since(lastDone))
		}
		lastDone = time.Now()
	}
	if err := r.drive(r.job.Finished); err != nil {
		return nil, err
	}
	p.run = time.Since(t1).Seconds()
	ht.stopRoot(root)
	r.finishCounts()
	return p, nil
}

func refCoord(seed int64) ([]jobOutcome, error) {
	r, err := coordRig(newPass(), nil, seed)
	if err != nil {
		return nil, err
	}
	return r.runToEnd()
}

func cpiSpec() cluster.JobSpec {
	return cluster.JobSpec{App: "cpi", Endpoints: 4, Work: work, Scale: btScale}
}

// passStandby runs standbyEpisodes episodes, each a fresh cluster on
// seed+k: a standby is attached once and promoted once. Re-attaching
// a standby after a promotion within one cluster is not a supported
// path, so the workload stays episode-based.
func passStandby(seed int64, ht *hostTrace, setupOnly bool) (*passResult, error) {
	p := newPass()
	for k := int64(0); k < standbyEpisodes; k++ {
		t0 := time.Now()
		r, err := newRig(p, ht, clusterConfig(4, seed+k, btScale), cpiSpec(), 0, true)
		if err != nil {
			return nil, err
		}
		if err := r.settle(); err != nil {
			return nil, err
		}
		if err := r.supervise(supervisedPolicy); err != nil {
			return nil, err
		}
		if err := r.attachStandby(); err != nil {
			return nil, err
		}
		p.setup = append(p.setup, time.Since(t0).Seconds())
		if setupOnly {
			continue
		}
		if k == 0 {
			if err := r.describeInputs(); err != nil {
				return nil, err
			}
		}
		root := r.startMeasure()
		t1 := time.Now()
		if err := r.until(func() bool { return r.commits >= 1 }); err != nil {
			return nil, err
		}
		crashAt := max(0.5, r.job.Progress()+0.05)
		if err := r.until(func() bool { return r.job.Progress() >= crashAt }); err != nil {
			return nil, err
		}
		crashed := !r.job.Finished() && r.sup.Err() == nil
		if crashed {
			r.crash(r.c.Nodes[1])
		}
		if err := r.until(func() bool { return false }); err != nil {
			return nil, err
		}
		p.run += time.Since(t1).Seconds()
		ht.stopRoot(root)
		r.finishSupervised()
		r.finishCounts()
		st := r.sup.Stats()
		p.check("crash point reached", crashed, "job ended before the crash point")
		p.check("supervisor error is nil", r.sup.Err() == nil, "%v", r.sup.Err())
		p.check("failovers equal crashes", st.Failovers == r.crashes, "%d failovers, %d crashes", st.Failovers, r.crashes)
		p.check("promotions equal failovers", st.Promotions == st.Failovers, "%d promotions, %d failovers", st.Promotions, st.Failovers)
	}
	return p, nil
}

func refStandby(seed int64) ([]jobOutcome, error) {
	var out []jobOutcome
	for k := int64(0); k < standbyEpisodes; k++ {
		r, err := newRig(newPass(), nil, clusterConfig(4, seed+k, btScale), cpiSpec(), 0, false)
		if err != nil {
			return nil, err
		}
		if err := r.settle(); err != nil {
			return nil, err
		}
		o, err := r.runToEnd()
		if err != nil {
			return nil, err
		}
		out = append(out, o...)
	}
	return out, nil
}
