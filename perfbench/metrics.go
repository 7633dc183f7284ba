package main

import (
	"fmt"
	"strings"
	"time"
)

// endToEndNames are the end-to-end metrics of the result line, in
// BENCHMARK.json order. They are the ones every workload defines.
var endToEndNames = []string{
	"setup_s", "run_host_s", "host_mem_peak_mib",
	"ckpt_host_ms.p50", "gen_host_ms.p50", "ckpt_sim_ms.p50", "job_sim_s",
}

// selfBuckets partition the host time of a traced pass: every span's
// self time lands in exactly one of them.
var selfBuckets = []string{
	"sim.self", "core.ckpt_residual", "core.restart_residual",
	"imgfmt.encode_self", "imgfmt.decode_self",
	"imagestore.write", "imagestore.read", "imagestore.meta",
	"memfs.write", "memfs.read", "memfs.meta",
	"standby.ship_self", "trace.unattributed",
}

// perLayerNames are the per-layer metrics of the result line, in
// BENCHMARK.json order.
var perLayerNames = []string{
	"core.ckpt_call.host_ms", "core.ckpt_residual.host_ms", "core.restart_residual.host_ms",
	"core.standalone_sim_ms.p50", "core.agent_total_sim_ms.p50",
	"coord.barrier_sim_us.p50", "coord.msgs_per_op", "coord.root_msgs_per_op", "coord.bytes_per_op",
	"netckpt.net_ckpt_sim_ms.max", "netckpt.net_state_bytes_per_op", "netckpt.queue_bytes_per_op",
	"ckpt.logical_bytes_per_gen", "ckpt.wire_bytes_per_gen", "ckpt.peak_buffered_bytes",
	"imgfmt.encode_self.host_ms", "imgfmt.encode.logical_mbps",
	"imgfmt.decode_self.host_ms", "imgfmt.decode.wire_mbps", "imgfmt.wire_per_logical",
	"imagestore.write.host_ms", "imagestore.read.host_ms", "imagestore.meta.host_ms",
	"imagestore.stored_per_wire", "imagestore.read_amplification",
	"imagestore.records_written", "imagestore.records_read",
	"memfs.write.host_ms", "memfs.read.host_ms", "memfs.meta.host_ms",
	"supervisor.reads_per_commit", "supervisor.validate_read.host_ms",
	"supervisor.failover_read.host_ms", "supervisor.retries",
	"supervisor.rto_detect_sim_ms", "supervisor.rto_load_sim_ms", "supervisor.rto_reconstruct_sim_ms",
	"supervisor.rto_restart-barrier_sim_ms", "supervisor.rto_restart-agent_sim_ms",
	"supervisor.rto_catch-up_sim_ms",
	"standby.gens_applied", "standby.bytes_applied", "standby.sync_errors",
	"standby.src_read.host_ms", "standby.ship_self.host_ms",
	"sim.self.host_ms", "sim.events_per_run", "sim.host_us_per_event",
	"trace.overhead_pct", "trace.unattributed.host_ms", "trace.total.host_ms",
}

const (
	naSupervised = "supervisor-issued checkpoints do not expose per-agent stats outside the program"
	naNoFailover = "the workload has no failovers"
	naNoFlush    = "the workload flushes no records"
	naNoStandby  = "the workload attaches no standby"
	naNoReads    = "the workload reads no records back"
)

// sampled summarizes samples as p50 (or max), with the reason when
// there are none.
func sampled(name string, xs []float64, unit, clock, basis, na string) metric {
	m := metric{Name: name, Unit: unit, Clock: clock, Basis: basis, N: len(xs)}
	switch {
	case len(xs) == 0:
		m.NA = na
	case strings.HasSuffix(name, ".max"):
		m.Value = maxOf(xs)
	default:
		m.Value = median(xs)
	}
	return m
}

// tailMetric is name.tail by the tail rule, or n/a below 20 samples.
func tailMetric(name string, xs []float64, unit, clock string) metric {
	m := metric{Name: name + ".tail", Unit: unit, Clock: clock, N: len(xs)}
	if v, pct, ok := tail(xs); ok {
		m.Value, m.TailPct = v, pct
	} else {
		m.NA = fmt.Sprintf("fewer than %d samples", minTailSamples)
	}
	return m
}

// ratio is a/b, or n/a when b is zero.
func ratio(name string, a, b float64, unit, clock, basis, na string) metric {
	m := metric{Name: name, Unit: unit, Clock: clock, Basis: basis, N: 1}
	if b == 0 {
		m.NA, m.N = na, 0
	} else {
		m.Value = a / b
	}
	return m
}

// endToEnd summarizes the untraced passes: host samples pooled over
// passes, sim figures from the first pass (every pass has the same).
func endToEnd(ps []*passResult, setups []float64, failRatio float64) []metric {
	p0 := ps[0]
	host := func(name string) []float64 {
		return gather(ps, func(p *passResult) []float64 { return p.host[name] })
	}
	runs := gather(ps, func(p *passResult) []float64 { return []float64{p.run} })
	var timed, logical float64
	for _, p := range ps {
		timed += p.timedCkptMs
		logical += p.count["ckpt.logical_bytes"]
	}
	ckptHost := host("ckpt_host_ms")
	peaks := gather(ps, func(p *passResult) []float64 { return []float64{p.peakMiB} })
	gens := p0.count["ckpt.ops"] + p0.count["supervisor.commits"]
	stored := ratio("stored_bytes_per_gen", p0.count["imagestore.stored_written"], gens, "bytes", "count", "stored", naNoFlush)
	if p0.count["imagestore.wire_written"] == 0 {
		stored = metric{Name: stored.Name, Unit: stored.Unit, Clock: stored.Clock, Basis: stored.Basis, NA: naNoFlush}
	}
	return []metric{
		{Name: "setup_s", Value: median(setups), Unit: "s", Clock: "host", N: len(setups)},
		{Name: "run_host_s", Value: median(runs), Unit: "s", Clock: "host", N: len(runs)},
		{Name: "host_mem_peak_mib", Value: median(peaks), Unit: "MiB", Clock: "host", N: len(peaks)},
		sampled("ckpt_host_ms.p50", ckptHost, "ms", "host", "", ""),
		tailMetric("ckpt_host_ms", ckptHost, "ms", "host"),
		ratio("ckpt_logical_mbps", logical/1e6, timed/1e3, "MB/s", "host", "logical", naSupervised),
		sampled("gen_host_ms.p50", host("gen_host_ms"), "ms", "host", "", "fewer than two generations"),
		sampled("failover_host_ms.p50", host("failover_host_ms"), "ms", "host", "", naNoFailover),
		sampled("ckpt_sim_ms.p50", p0.simS["ckpt_sim_ms"], "ms", "sim", "", ""),
		sampled("suspend_sim_ms.p50", p0.simS["suspend_sim_ms"], "ms", "sim", "", naSupervised),
		tailMetric("suspend_sim_ms", p0.simS["suspend_sim_ms"], "ms", "sim"),
		sampled("rto_sim_ms.p50", p0.simS["rto_sim_ms"], "ms", "sim", "", naNoFailover),
		sampled("rpo_sim_ms.p50", p0.simS["rpo_sim_ms"], "ms", "sim", "", naNoFailover),
		sampled("job_sim_s", p0.simS["job_sim_s"], "s", "sim", "", ""),
		stored,
		{Name: "op_fail_ratio", Value: failRatio, Unit: "ratio", Clock: "count", N: 1},
	}
}

// perLayer summarizes the traced passes. Host figures are means per
// traced pass, so the self-time buckets still sum to the traced pass
// time; sim figures and counts come from the first traced pass.
func perLayer(plain, tps []*passResult) []metric {
	hostMs := func(get func(*hostTrace) time.Duration) float64 {
		var sum time.Duration
		for _, p := range tps {
			sum += get(p.trace)
		}
		return float64(sum) / 1e6 / float64(len(tps))
	}
	self := func(b string) float64 { return hostMs(func(t *hostTrace) time.Duration { return t.self[b] }) }
	view := func(v string) float64 { return hostMs(func(t *hostTrace) time.Duration { return t.incl[v] }) }
	h := func(name string, v float64) metric {
		m := metric{Name: name, Value: v, Unit: "ms", Clock: "host", N: len(tps)}
		if v == 0 {
			m.NA = "the workload makes no calls of this kind"
		}
		return m
	}
	p := tps[0]
	c := p.count
	ops := c["ckpt.ops"]
	commits := c["supervisor.commits"]
	events := c["sim.events"]
	plainRun := median(gather(plain, func(p *passResult) []float64 { return []float64{p.run} }))
	tracedRun := median(gather(tps, func(p *passResult) []float64 { return []float64{p.run} }))
	wirePerGen := ratio("ckpt.wire_bytes_per_gen", c["ckpt.wire_bytes"], ops, "bytes", "count", "wire", naNoFlush)
	if commits > 0 {
		wirePerGen = ratio("ckpt.wire_bytes_per_gen", c["imagestore.wire_written"], commits, "bytes", "count", "wire", naNoFlush)
	}
	encode := ratio("imgfmt.encode.logical_mbps", c["ckpt.logical_bytes"]/1e6, self("imgfmt.encode_self")/1e3, "MB/s", "host", "logical", naNoFlush)
	if ops == 0 {
		encode = metric{Name: encode.Name, Unit: encode.Unit, Clock: encode.Clock, Basis: encode.Basis, NA: naSupervised}
	}
	peak := metric{Name: "ckpt.peak_buffered_bytes", Value: c["ckpt.peak_buffered_bytes"], Unit: "bytes", Clock: "count", Basis: "wire", N: 1}
	out := []metric{
		h("core.ckpt_call.host_ms", view("core.ckpt_call")),
		h("core.ckpt_residual.host_ms", self("core.ckpt_residual")),
		h("core.restart_residual.host_ms", self("core.restart_residual")),
		sampled("core.standalone_sim_ms.p50", p.simS["core.standalone_sim_ms"], "ms", "sim", "", naSupervised),
		sampled("core.agent_total_sim_ms.p50", p.simS["core.agent_total_sim_ms"], "ms", "sim", "", naSupervised),
		sampled("coord.barrier_sim_us.p50", p.simS["coord.barrier_sim_us"], "us", "sim", "", naSupervised),
		ratio("coord.msgs_per_op", c["coord.msgs"], ops, "count", "count", "", naSupervised),
		ratio("coord.root_msgs_per_op", c["coord.root_msgs"], ops, "count", "count", "", naSupervised),
		ratio("coord.bytes_per_op", c["coord.bytes"], ops, "bytes", "count", "wire", naSupervised),
		sampled("netckpt.net_ckpt_sim_ms.max", p.simS["netckpt.net_ckpt_sim_ms"], "ms", "sim", "", naSupervised),
		ratio("netckpt.net_state_bytes_per_op", c["netckpt.net_state_bytes"], ops, "bytes", "count", "logical", naSupervised),
		ratio("netckpt.queue_bytes_per_op", c["netckpt.queue_bytes"], ops, "bytes", "count", "logical", naSupervised),
		ratio("ckpt.logical_bytes_per_gen", c["ckpt.logical_bytes"], ops, "bytes", "count", "logical", naSupervised),
		wirePerGen,
		peak,
		h("imgfmt.encode_self.host_ms", self("imgfmt.encode_self")),
		encode,
		h("imgfmt.decode_self.host_ms", self("imgfmt.decode_self")),
		ratio("imgfmt.decode.wire_mbps", c["imagestore.wire_read"]/1e6, self("imgfmt.decode_self")/1e3, "MB/s", "host", "wire", naNoReads),
		ratio("imgfmt.wire_per_logical", c["ckpt.wire_bytes"], c["ckpt.logical_bytes"], "ratio", "count", "wire/logical", naSupervised),
		h("imagestore.write.host_ms", self("imagestore.write")),
		h("imagestore.read.host_ms", self("imagestore.read")),
		h("imagestore.meta.host_ms", self("imagestore.meta")),
		ratio("imagestore.stored_per_wire", c["imagestore.stored_written"], c["imagestore.wire_written"], "ratio", "count", "stored/wire", naNoFlush),
		ratio("imagestore.read_amplification", c["imagestore.wire_read"], c["imagestore.wire_written"], "ratio", "count", "wire", naNoFlush),
		{Name: "imagestore.records_written", Value: c["imagestore.records_written"], Unit: "count", Clock: "count", N: 1},
		{Name: "imagestore.records_read", Value: c["imagestore.records_read"], Unit: "count", Clock: "count", N: 1},
		h("memfs.write.host_ms", self("memfs.write")),
		h("memfs.read.host_ms", self("memfs.read")),
		h("memfs.meta.host_ms", self("memfs.meta")),
		ratio("supervisor.reads_per_commit", c["imagestore.records_read"], commits, "count", "count", "", "the workload is not supervised"),
		h("supervisor.validate_read.host_ms", view("supervisor.validate_read")),
		h("supervisor.failover_read.host_ms", view("supervisor.failover_read")),
		{Name: "supervisor.retries", Value: c["supervisor.retries"], Unit: "count", Clock: "count", N: 1},
	}
	for _, seg := range rtoSegments {
		name := "supervisor.rto_" + seg + "_sim_ms"
		out = append(out, sampled(name, p.simS[name], "ms", "sim", "", naNoFailover))
	}
	standbyNA := ""
	if c["standby.src_read_bytes"] == 0 {
		standbyNA = naNoStandby
	}
	out = append(out,
		metric{Name: "standby.gens_applied", Value: c["standby.gens_applied"], Unit: "count", Clock: "count", N: 1, NA: standbyNA},
		metric{Name: "standby.bytes_applied", Value: c["standby.bytes_applied"], Unit: "bytes", Clock: "count", Basis: "wire", N: 1, NA: standbyNA},
		metric{Name: "standby.sync_errors", Value: c["standby.sync_errors"], Unit: "count", Clock: "count", N: 1, NA: standbyNA},
		h("standby.src_read.host_ms", view("standby.src_read")),
		h("standby.ship_self.host_ms", self("standby.ship_self")),
		h("sim.self.host_ms", self("sim.self")),
		metric{Name: "sim.events_per_run", Value: events, Unit: "count", Clock: "count", N: 1},
		ratio("sim.host_us_per_event", view("trace.total")*1e3, events, "us", "host", "", "no simulator events"),
		ratio("trace.overhead_pct", 100*(tracedRun-plainRun), plainRun, "%", "host", "", "no untraced pass"),
		h("trace.unattributed.host_ms", self("trace.unattributed")),
		h("trace.total.host_ms", view("trace.total")),
	)
	return out
}

// selfSum returns the self-time buckets' sum and the root span's
// duration, in ms.
func selfSum(t *hostTrace) (sum, total float64) {
	for _, b := range selfBuckets {
		sum += float64(t.self[b]) / 1e6
	}
	return sum, float64(t.incl["trace.total"]) / 1e6
}
