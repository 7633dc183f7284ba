// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one seeded workload for a fixed host-time budget,
// checks the program's outputs, prints every metric with its unit,
// clock and byte basis, and ends with one JSON result line.
//
//	go run . --workload ckpt-dense --seed 2005 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// untraced. With --trace 1 the budget is split between untraced passes
// and traced passes of the same seed, and the result carries the
// per-layer metrics. See README.md for the workloads and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// minSetups is how many times a run sets up its workload at least, so
// that setup_s is a median.
const minSetups = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "ckpt-dense", "workload to run")
	seed := fs.Int64("seed", 2005, "workload seed")
	seconds := fs.Float64("seconds", 10, "host seconds to measure for")
	traced := fs.Int("trace", 0, "1: add traced passes and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	rep, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		return 1
	}
	rep.print(stdout)
	if !rep.Correct {
		return 1
	}
	return 0
}

// report is the self-describing record of one run.
type report struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	// LogicalBytesPerPod is the application memory of one pod;
	// BallastWireRatio is the measured wire/logical ratio of the
	// ballast region under the v3 frame encoding.
	LogicalBytesPerPod float64 `json:"logical_bytes_per_pod"`
	BallastWireRatio   float64 `json:"ballast_wire_ratio"`
	Passes             int     `json:"passes"`
	TracedPasses       int     `json:"traced_passes"`
	// PassRunS is each untraced pass's run_host_s, in run order.
	PassRunS     []float64 `json:"pass_run_s"`
	EndToEnd     []metric  `json:"end_to_end"`
	PerLayer     []metric  `json:"per_layer,omitempty"`
	Checks       []check   `json:"failed_checks,omitempty"`
	Correct      bool      `json:"correct"`
	Attempted    int       `json:"attempted"`
	Failed       int       `json:"failed"`
	CrashAborted int       `json:"crash_aborted"`
}

func (r *report) fail(name string, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, Detail: fmt.Sprintf(format, args...)})
	r.Attempted++
	r.Failed++
}

// measure runs passes of w until the budget is spent (at least one),
// then checks and summarizes them.
func measure(w *workload, seed int64, budget time.Duration, traced bool) (*report, error) {
	rep := &report{
		Workload: w.name, Seed: seed, Traced: traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
	}
	plain := budget
	if traced {
		plain = budget / 2
	}
	passes, err := repeat(w, seed, plain, false)
	if err != nil {
		return nil, err
	}
	var tpasses []*passResult
	if traced {
		if tpasses, err = repeat(w, seed, budget-plain, true); err != nil {
			return nil, err
		}
	}
	setups := gather(passes, func(p *passResult) []float64 { return p.setup })
	for len(setups) < minSetups {
		p, err := w.pass(seed, nil, true)
		if err != nil {
			return nil, err
		}
		setups = append(setups, p.setup...)
	}
	ref, err := w.reference(seed)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	rep.Passes, rep.TracedPasses = len(passes), len(tpasses)
	rep.PassRunS = gather(passes, func(p *passResult) []float64 { return []float64{p.run} })
	rep.LogicalBytesPerPod, rep.BallastWireRatio = passes[0].logicalPerPod, passes[0].ballastRatio

	all := append(append([]*passResult(nil), passes...), tpasses...)
	for i, p := range all {
		checkResults(p, ref)
		for _, c := range p.checks {
			if !c.OK {
				rep.Checks = append(rep.Checks, c)
			}
		}
		rep.Attempted += p.attempted
		rep.Failed += p.failed
		rep.CrashAborted += p.crashAborted
		if i > 0 {
			if diff := detDiff(all[0], p); diff != "" {
				rep.fail("deterministic figures repeat", "pass %d (traced %v) differs from pass 0: %s", i, i >= len(passes), diff)
			}
		}
	}
	rep.EndToEnd = endToEnd(passes, setups, float64(rep.Failed+rep.CrashAborted)/float64(rep.Attempted))
	if traced {
		rep.PerLayer = perLayer(passes, tpasses)
		for i, p := range tpasses {
			sum, total := selfSum(p.trace)
			if math.Abs(sum-total) > 1e-6*math.Max(1, total) {
				rep.fail("self times sum to traced time", "traced pass %d: %.6f ms of %.6f ms", i, sum, total)
			}
		}
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// repeat runs passes until budget is spent, at least one.
func repeat(w *workload, seed int64, budget time.Duration, traced bool) ([]*passResult, error) {
	var out []*passResult
	start := time.Now()
	for len(out) == 0 || time.Since(start) < budget {
		// Each pass starts from a collected heap with freed memory
		// returned to the OS, so neither garbage nor resident memory a
		// previous pass left lands in this one's timings or peak RSS.
		debug.FreeOSMemory()
		// Where the reset is refused, VmHWM keeps the run's peak so
		// far, which still bounds this pass's.
		_ = resetPeakRSS()
		var ht *hostTrace
		if traced {
			ht = newHostTrace()
		}
		p, err := w.pass(seed, ht, false)
		if err != nil {
			return nil, err
		}
		p.trace = ht
		p.peakMiB = peakRSSMiB()
		out = append(out, p)
	}
	return out, nil
}

// checkResults compares every job result with the same-seed reference.
func checkResults(p *passResult, ref []jobOutcome) {
	want := make(map[int64]float64, len(ref))
	for _, o := range ref {
		want[o.seed] = o.result
	}
	for _, o := range p.jobs {
		exp, ok := want[o.seed]
		p.check(fmt.Sprintf("result of seed %d equals the run without checkpoints", o.seed),
			ok && exp == o.result, "got %v, want %v", o.result, exp)
	}
}

// detDiff names the first deterministic figure (sim clock or count)
// that differs between two passes of one seed; figures only one of the
// passes has are skipped.
func detDiff(a, b *passResult) string {
	for _, k := range sortedKeys(a.simS) {
		bv, ok := b.simS[k]
		if ok && fmt.Sprint(a.simS[k]) != fmt.Sprint(bv) {
			return fmt.Sprintf("%s: %v vs %v", k, a.simS[k], bv)
		}
	}
	for _, k := range sortedKeys(a.count) {
		bv, ok := b.count[k]
		if ok && a.count[k] != bv {
			return fmt.Sprintf("%s: %v vs %v", k, a.count[k], bv)
		}
	}
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func gather(ps []*passResult, f func(*passResult) []float64) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, f(p)...)
	}
	return out
}

// resetPeakRSS restarts the kernel's peak-RSS count (VmHWM) at the
// current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

func (r *report) print(out io.Writer) {
	fmt.Fprintf(out, "workload %s  seed %d  passes %d (+%d traced)  GOMAXPROCS %d  nproc %d  %s\n",
		r.Workload, r.Seed, r.Passes, r.TracedPasses, r.GOMAXPROCS, r.NProc, r.GoVersion)
	fmt.Fprintf(out, "inputs: %.0f logical bytes/pod, ballast wire/logical %.3f\n", r.LogicalBytesPerPod, r.BallastWireRatio)
	table := func(title string, ms []metric) {
		fmt.Fprintln(out, title)
		for _, m := range ms {
			line := fmt.Sprintf("  %-36s %14.4f %-6s %-5s %-8s n=%d", m.Name, m.Value, m.Unit, m.Clock, m.Basis, m.N)
			if m.TailPct > 0 {
				line += fmt.Sprintf(" p%g", m.TailPct)
			}
			if m.NA != "" {
				line += "  n/a: " + m.NA
			}
			fmt.Fprintln(out, line)
		}
	}
	table("end-to-end:", r.EndToEnd)
	if r.Traced {
		table("per-layer (traced passes):", r.PerLayer)
		var sum, total float64
		for _, m := range r.PerLayer {
			if m.Name == "trace.total.host_ms" {
				total = m.Value
			}
			for _, b := range selfBuckets {
				if m.Name == b+".host_ms" {
					sum += m.Value
				}
			}
		}
		fmt.Fprintf(out, "self-time buckets sum to %.3f ms of %.3f ms per traced pass\n", sum, total)
	}
	for _, c := range r.Checks {
		fmt.Fprintf(out, "CHECK FAILED: %s: %s\n", c.Name, c.Detail)
	}
	fmt.Fprintf(out, "operations: %d attempted, %d failed, %d checkpoint attempts aborted by injected crashes\n",
		r.Attempted, r.Failed, r.CrashAborted)
	rec, _ := json.Marshal(r)
	fmt.Fprintf(out, "record %s\n", rec)

	want := endToEndNames
	ms := r.EndToEnd
	if r.Traced {
		want, ms = perLayerNames, r.PerLayer
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]val, len(want))
	for _, m := range ms {
		vals[m.Name] = val{m.Value, m.Unit}
	}
	res := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]val, len(want))}
	for _, n := range want {
		res.Metrics[n] = vals[n]
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(out, "%s\n", line)
}
