package ckpt

import (
	"zapc/internal/netckpt"
	"zapc/internal/pod"
	"zapc/internal/vos"
)

// Pre-copy live checkpointing (paper §4; CheckSync/pre-copy migration
// lineage): instead of freezing the pod for the whole serialization, the
// coordinator snapshots all memory while the pod keeps running, then
// iterates, re-copying only the regions dirtied since the previous
// round, and quiesces only to capture the residual dirty set plus the
// network state. The rounds are emitted as the existing full-image +
// delta records, so a pre-copy chain restores through
// ReconstructChainFrom unchanged — there is no new on-disk format.
//
// The simulation runs event callbacks atomically (no process is ever
// mid-step while another callback runs), so a live snapshot taken inside
// one callback is read-consistent at its write-clock watermark — the
// simulated stand-in for copy-on-write / soft-dirty page capture.

// PrecopyRecord is one record of a pre-copy chain: the base full image
// (round 1), a round delta, or the residual delta captured at quiesce.
type PrecopyRecord struct {
	// Image is the base full image; nil for delta rounds.
	Image *Image
	// Delta is the round's incremental record; nil for the base.
	Delta *DeltaImage
	// Final marks the residual record captured with the pod quiesced.
	Final bool
	// Record holds the record encoded once when the round was taken.
	*Record
}

// Precopy drives one pod's iterative pre-copy checkpoint. BeginPrecopy
// takes the live base snapshot; each Round re-copies what was dirtied
// since the previous snapshot; Finalize captures the residual dirty set
// and network state once the coordinator has quiesced the pod.
//
// A round is a Tracker capture that commits at once, so the emitted
// records chain exactly like an incremental base+delta chain: record i
// carries Seq i and the CRC of record i-1, and ReconstructChainFrom
// validates and restores the chain unchanged.
type Precopy struct {
	pod     *pod.Pod
	tr      Tracker
	records []*PrecopyRecord
	final   *Image
}

// BeginPrecopy snapshots the running pod's full memory at a watermark —
// round 1 of the iteration — and returns the driver plus the base
// record.
func BeginPrecopy(p *pod.Pod) (*Precopy, *PrecopyRecord, error) {
	pc := &Precopy{pod: p}
	rec, err := pc.Round()
	if err != nil {
		return nil, nil, err
	}
	return pc, rec, nil
}

// DirtyBytes reports the size of the dirty set accumulated since the
// last round — the quantity the coordinator compares against
// ConvergeBytes to decide whether another round is worthwhile.
func (pc *Precopy) DirtyBytes() int64 {
	var n int64
	for _, proc := range pc.pod.Procs() {
		n += proc.DirtyBytes(pc.tr.marks[proc.VPID])
	}
	return n
}

// Rounds reports how many records the chain holds so far (base
// included).
func (pc *Precopy) Rounds() int { return len(pc.records) }

// Records returns the chain's records in restore order: base, round
// deltas, then (after Finalize) the residual.
func (pc *Precopy) Records() []*PrecopyRecord { return pc.records }

// FinalImage returns the materialized image of the quiesced pod, set by
// Finalize — what a stop-and-copy checkpoint at the quiesce point would
// have produced.
func (pc *Precopy) FinalImage() *Image { return pc.final }

// Round snapshots the running pod and emits the next record: the full
// base on the first round, afterwards a delta containing only the state
// dirtied since the previous round. The network image is intentionally
// empty: socket sequence numbers and buffer occupancy are inherently
// quiesce-phase state, and restore always applies the final residual
// record, whose Net — captured with the pod frozen and blocked — is
// authoritative.
func (pc *Precopy) Round() (*PrecopyRecord, error) {
	img, marks, err := capturePod(pc.pod, &netckpt.NetImage{PodIP: pc.pod.Stack().IPAddr()})
	if err != nil {
		return nil, err
	}
	return pc.commit(img, marks, false)
}

// Finalize captures the residual record with the pod quiesced and its
// network blocked: the regions dirtied since the last round, every
// process's registers/FD table, and the full network state — net when
// the caller already took it, a fresh capture when nil. This — plus
// socket drains — is the only work inside the suspend window.
func (pc *Precopy) Finalize(net *netckpt.NetImage) (*PrecopyRecord, error) {
	img, marks, err := captureFrozen(pc.pod, net)
	if err != nil {
		return nil, err
	}
	rec, err := pc.commit(img, marks, true)
	if err != nil {
		return nil, err
	}
	pc.final = img
	return rec, nil
}

// commit records one captured round through the tracker and advances
// the chain to it at once.
func (pc *Precopy) commit(img *Image, marks map[vos.PID]uint64, final bool) (*PrecopyRecord, error) {
	pn, err := pc.tr.pending(pc.pod, img, marks, false)
	if err != nil {
		return nil, err
	}
	pn.Commit()
	rec := &PrecopyRecord{Delta: pn.Delta, Final: final, Record: pn.Record}
	if pn.Full() {
		rec.Image = img
	}
	pc.records = append(pc.records, rec)
	return rec, nil
}
