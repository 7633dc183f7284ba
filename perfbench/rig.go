package main

import (
	"fmt"
	"time"

	"zapc/internal/cluster"
	"zapc/internal/core"
	"zapc/internal/sim"
	"zapc/internal/standby"
	"zapc/internal/supervisor"
	"zapc/internal/trace"
	"zapc/internal/vos"
)

const runDeadline = 4 * 3600 * sim.Second

// Labels of the three store wrappers. The upper one sits above the
// dedup layer and sees image records on the wire basis; the lower one
// sits below it and sees dedup blocks and manifests on the stored
// basis; the standby one is the plane's own view of the primary store.
var (
	upperLabels = storeLabels{
		streamW: "imgfmt.encode_self", callW: "imagestore.write",
		streamR: "imgfmt.decode_self", callR: "imagestore.read",
		meta: "imagestore.meta", classifyReads: true,
	}
	lowerLabels = storeLabels{
		callW: "memfs.write", callR: "memfs.read", meta: "memfs.meta",
	}
	standbyLabels = storeLabels{
		streamW: "standby.ship_self", callW: "imagestore.write",
		streamR: "standby.ship_self", callR: "imagestore.read",
		meta: "imagestore.meta", readView: "standby.src_read",
	}
)

// passResult is what one pass of a workload measured.
type passResult struct {
	setup []float64 // host seconds, one per cluster set up
	run   float64   // host seconds of the pass, set-up excluded

	host  map[string][]float64 // host-clock samples
	simS  map[string][]float64 // sim-clock samples
	count map[string]float64   // deterministic counts, summed over the pass

	jobs   []jobOutcome
	checks []check
	// attempted/failed count operations: checkpoint attempts, crash
	// recoveries and output checks.
	attempted, failed int
	// crashAborted counts checkpoint attempts aborted by an injected
	// crash; op_fail_ratio counts them as failed, correctness does not.
	crashAborted int

	// timedCkptMs is the host time of the explicit checkpoint calls.
	timedCkptMs float64

	peakMiB       float64 // peak RSS of the pass
	logicalPerPod float64 // application memory per pod, logical basis
	ballastRatio  float64 // wire/logical of pod 0's data region
	trace         *hostTrace
}

type jobOutcome struct {
	seed   int64
	result float64
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func newPass() *passResult {
	return &passResult{
		host:  make(map[string][]float64),
		simS:  make(map[string][]float64),
		count: make(map[string]float64),
	}
}

func (p *passResult) addHost(name string, d time.Duration) {
	p.host[name] = append(p.host[name], float64(d)/1e6)
}

func (p *passResult) addSim(name string, v float64) { p.simS[name] = append(p.simS[name], v) }

// check records an output check; it counts as an attempted operation.
func (p *passResult) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
		p.failed++
	}
	p.attempted++
	p.checks = append(p.checks, c)
}

func simMs(d sim.Duration) float64 { return float64(d) / 1e6 }

// rig is one cluster under test plus the benchmark's instrumentation.
type rig struct {
	c   *cluster.Cluster
	job *cluster.Job
	p   *passResult
	ht  *hostTrace

	upper, lower, sb *timedStore
	seed             int64
	launchT          sim.Time
	drives, conds    int64

	// Supervised runs only.
	sup                *supervisor.Supervisor
	plane              *standby.Plane
	op, rop            *span
	opHost             time.Time
	opSim              sim.Time
	commits, failovers int
	crashes            int
	// retries and crashRetries count checkpoint retries, in all and
	// inside failover windows (attempts a crash doomed).
	retries, crashRetries int
	lastCommit            time.Time
	crashT                time.Time
	dirtyGen              bool // the current commit interval saw a crash
}

// clusterConfig mirrors the experiment harness: one pod per
// single-CPU node, image costs charged at paper scale.
func clusterConfig(nodes int, seed int64, scale float64) cluster.Config {
	costs := sim.DefaultCosts()
	costs.ImageCostScale = 1 / scale
	return cluster.Config{Nodes: nodes, CPUsPerNode: 1, Seed: seed, Costs: &costs}
}

// newRig builds the cluster and launches the job. With dedup, the
// store stack is lower wrapper -> dedup -> upper wrapper, on untraced
// runs too (counting only), so both runs drive identical stores.
func newRig(p *passResult, ht *hostTrace, cfg cluster.Config, spec cluster.JobSpec, spares int, dedup bool) (*rig, error) {
	c := cluster.New(cfg)
	if spares > 0 {
		c.AddNodes(spares, 1)
	}
	r := &rig{c: c, p: p, ht: ht, seed: cfg.Seed}
	if ht != nil {
		c.EnableTracing()
	}
	if dedup {
		r.lower = newTimedStore(c.Mgr.Store(), ht, lowerLabels)
		c.Mgr.SetStore(r.lower)
		c.EnableDedupStore()
		r.upper = newTimedStore(c.Mgr.Store(), ht, upperLabels)
		c.Mgr.SetStore(r.upper)
	}
	job, err := c.Launch(spec)
	if err != nil {
		return nil, err
	}
	r.job = job
	r.launchT = c.W.Now()
	return r, nil
}

// startMeasure ends set-up: it opens the traced root span and restarts
// the event count, so both cover the measured part only.
func (r *rig) startMeasure() *span {
	r.conds, r.drives = 0, 0
	return r.ht.startRoot()
}

// drive steps the simulation until cond holds. Every evaluation of the
// condition but the last follows one simulator event, which is how the
// benchmark counts events without touching the simulator.
func (r *rig) drive(cond func() bool) error {
	sp := r.ht.begin("sim.self", "")
	defer r.ht.end(sp)
	return r.driveRaw(cond, runDeadline)
}

func (r *rig) driveRaw(cond func() bool, deadline sim.Duration) error {
	r.drives++
	return r.c.Drive(func() bool {
		r.conds++
		if r.sup != nil {
			r.observe()
		}
		return cond()
	}, deadline)
}

// procs returns every pod's application process (vpid 1).
func (r *rig) procs() ([]*vos.Process, error) {
	var out []*vos.Process
	for _, pd := range r.job.Pods {
		proc, ok := pd.Lookup(1)
		if !ok {
			return nil, fmt.Errorf("pod %s has no vpid 1", pd.Name())
		}
		out = append(out, proc)
	}
	return out, nil
}

// settle drives until every application process has installed its
// ballast, which each app does right after MPI init.
func (r *rig) settle() error {
	return r.drive(func() bool {
		procs, err := r.procs()
		if err != nil {
			return false
		}
		for _, proc := range procs {
			if _, ok := proc.Region("data"); !ok {
				return false
			}
		}
		return true
	})
}

// describeInputs records the logical bytes per pod and the measured
// wire/logical ratio of pod 0's ballast.
func (r *rig) describeInputs() error {
	procs, err := r.procs()
	if err != nil {
		return err
	}
	var total int64
	for _, proc := range procs {
		total += proc.MemoryBytes()
	}
	r.p.logicalPerPod = float64(total) / float64(len(procs))
	data, _ := procs[0].Region("data")
	r.p.ballastRatio, err = wireRatio(data)
	return err
}

// checkpoint takes one coordinated checkpoint. It issues it through
// the manager and drives it with the benchmark's own condition, the
// same two steps Cluster.Checkpoint takes, so the simulator events it
// causes are counted with the rest.
func (r *rig) checkpoint(opts core.Options) (*core.CheckpointResult, error) {
	sp := r.ht.begin("core.ckpt_residual", "core.ckpt_call")
	t0 := time.Now()
	var res *core.CheckpointResult
	r.c.Mgr.Checkpoint(r.job.Pods, opts, func(x *core.CheckpointResult) { res = x })
	err := r.driveRaw(func() bool { return res != nil }, 60*sim.Second)
	took := time.Since(t0)
	r.ht.end(sp)
	if err == nil {
		err = res.Err
	}
	r.p.attempted++
	if err != nil {
		r.p.failed++
		return nil, err
	}
	r.p.addHost("ckpt_host_ms", took)
	st := res.Stats
	r.p.addSim("ckpt_sim_ms", simMs(st.Total))
	r.p.addSim("suspend_sim_ms", simMs(st.MaxSuspendWindow()))
	r.p.addSim("coord.barrier_sim_us", float64(st.CoordBarrier)/1e3)
	r.p.addSim("netckpt.net_ckpt_sim_ms", simMs(st.MaxNetCkpt()))
	var logical, peak float64
	for _, a := range st.Agents {
		r.p.addSim("core.standalone_sim_ms", simMs(a.Standalone))
		r.p.addSim("core.agent_total_sim_ms", simMs(a.Total))
		logical += float64(a.ImageBytes)
		r.p.count["ckpt.wire_bytes"] += float64(a.WireBytes)
		r.p.count["netckpt.net_state_bytes"] += float64(a.NetBytes)
		r.p.count["netckpt.queue_bytes"] += float64(a.NetQueueLen)
		peak = max(peak, float64(a.PeakBuffered))
	}
	r.p.count["ckpt.logical_bytes"] += logical
	r.p.count["ckpt.peak_buffered_bytes"] = max(r.p.count["ckpt.peak_buffered_bytes"], peak)
	r.p.count["ckpt.ops"]++
	r.p.count["coord.msgs"] += float64(st.Coord.Msgs)
	r.p.count["coord.root_msgs"] += float64(st.Coord.RootMsgs)
	r.p.count["coord.bytes"] += float64(st.Coord.Bytes)
	r.p.timedCkptMs += float64(took) / 1e6
	return res, nil
}

// supervise starts the production supervisor on the job. A phase hook
// on the manager times each supervisor-issued checkpoint (start to
// done) and restart, so supervised runs report checkpoint times too.
func (r *rig) supervise(pol supervisor.Policy) error {
	r.c.Mgr.SetPhaseHook(func(ph core.Phase) {
		switch ph {
		case core.PhaseCheckpointStart:
			r.ht.end(r.op)
			r.op = r.ht.begin("core.ckpt_residual", "core.ckpt_call")
			r.opHost, r.opSim = time.Now(), r.c.W.Now()
		case core.PhaseCheckpointDone:
			if !r.opHost.IsZero() {
				r.p.addHost("ckpt_host_ms", time.Since(r.opHost))
				r.p.addSim("ckpt_sim_ms", simMs(sim.Duration(r.c.W.Now()-r.opSim)))
			}
			r.ht.end(r.op)
			r.opHost = time.Time{}
		case core.PhaseRestartStart:
			r.rop = r.ht.begin("core.restart_residual", "")
		case core.PhaseRestartDone:
			r.ht.end(r.rop)
		}
	})
	sup, err := r.c.Supervise(r.job, pol)
	if err != nil {
		return err
	}
	r.sup = sup
	return nil
}

// attachStandby attaches a warm standby whose plane reads the primary
// store through its own wrapper; the manager keeps the upper wrapper.
func (r *rig) attachStandby() error {
	r.sb = newTimedStore(r.c.DedupStore(), r.ht, standbyLabels)
	r.c.Mgr.SetStore(r.sb)
	plane, err := r.c.AttachStandby(r.sup, cluster.StandbyConfig{})
	r.c.Mgr.SetStore(r.upper)
	r.plane = plane
	return err
}

// observe runs after every simulator event of a supervised run: it
// closes commit intervals and failover windows on the host clock.
func (r *rig) observe() {
	st := r.sup.Stats()
	if st.Retries != r.retries {
		if r.failovers < r.crashes {
			r.crashRetries += st.Retries - r.retries
		}
		r.retries = st.Retries
	}
	if st.Checkpoints != r.commits {
		now := time.Now()
		if r.commits > 0 && !r.dirtyGen {
			r.p.addHost("gen_host_ms", now.Sub(r.lastCommit))
		}
		r.commits, r.lastCommit, r.dirtyGen = st.Checkpoints, now, false
	}
	if st.Failovers != r.failovers {
		r.p.addHost("failover_host_ms", time.Since(r.crashT))
		r.p.addSim("rto_sim_ms", simMs(st.LastRTO))
		r.p.addSim("rpo_sim_ms", simMs(st.LastRPO))
		r.failovers = st.Failovers
		r.ht.setFailover(false)
		r.ht.end(r.rop)
	}
}

// crash fails a node the way a power loss would. A checkpoint in
// flight is doomed, so its span closes here without a sample.
func (r *rig) crash(n *vos.Node) {
	r.ht.end(r.op)
	r.opHost = time.Time{}
	r.crashes++
	r.dirtyGen = true
	r.crashT = time.Now()
	r.ht.setFailover(true)
	n.Fail()
}

// finishSupervised stops the supervisor and records its counts, the
// recovery accounting and, on traced runs, the RTO decomposition.
func (r *rig) finishSupervised() {
	r.sup.Stop()
	st := r.sup.Stats()
	r.p.count["supervisor.commits"] += float64(st.Checkpoints)
	r.p.count["supervisor.retries"] += float64(st.Retries)
	r.p.count["supervisor.failovers"] += float64(st.Failovers)
	r.p.count["supervisor.promotions"] += float64(st.Promotions)
	r.p.count["supervisor.crashes"] += float64(r.crashes)
	// Each commit and each retry was a checkpoint attempt; each crash
	// was a recovery attempt that failed unless it ended in a failover.
	// An attempt aborted between a crash and its failover is the
	// expected cost of the crash: it counts toward op_fail_ratio but
	// does not make the run incorrect.
	r.p.attempted += st.Checkpoints + st.Retries + r.crashes
	r.p.failed += st.Retries - r.crashRetries + max(0, r.crashes-st.Failovers)
	r.p.crashAborted += r.crashRetries
	if r.plane != nil {
		ps := r.plane.Stats()
		r.p.count["standby.gens_applied"] += float64(ps.GensApplied)
		r.p.count["standby.bytes_applied"] += float64(ps.BytesApplied)
		r.p.count["standby.sync_errors"] += float64(ps.SyncErrors)
	}
	if reg := r.c.Metrics(); reg != nil {
		peak := float64(reg.Gauge("store_peak_buffered_bytes").Value())
		r.p.count["ckpt.peak_buffered_bytes"] = max(r.p.count["ckpt.peak_buffered_bytes"], peak)
	}
	if tr := r.c.Tracer(); tr != nil {
		for _, rep := range trace.FailoverReports(tr.Events()) {
			for _, seg := range rtoSegments {
				r.p.addSim("supervisor.rto_"+seg+"_sim_ms", float64(rep.SegmentTotal(seg))/1e6)
			}
		}
	}
}

var rtoSegments = []string{
	trace.SegDetect, trace.SegLoad, trace.SegReconstruct,
	trace.SegRestartBarrier, trace.SegRestartAgent, trace.SegCatchUp,
}

// finishCounts records the store and simulator counts of the pass.
func (r *rig) finishCounts() {
	r.p.count["sim.events"] += float64(r.conds - r.drives)
	if r.upper != nil {
		r.p.count["imagestore.wire_written"] += float64(r.upper.bytesW)
		r.p.count["imagestore.wire_read"] += float64(r.upper.bytesR)
		r.p.count["imagestore.records_written"] += float64(r.upper.recordsW)
		r.p.count["imagestore.records_read"] += float64(r.upper.recordsR)
		r.p.count["imagestore.stored_written"] += float64(r.lower.bytesW)
	}
	if r.sb != nil {
		r.p.count["standby.src_read_bytes"] += float64(r.sb.bytesR)
	}
	r.p.addSim("job_sim_s", float64(r.c.W.Now()-r.launchT)/1e9)
	r.p.jobs = append(r.p.jobs, jobOutcome{seed: r.seed, result: r.job.Result()})
}
