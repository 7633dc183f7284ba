package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"
	"time"

	"zapc/internal/core"
	"zapc/internal/imagestore"
	"zapc/internal/memfs"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	if _, _, ok := tail(seq(19)); ok {
		t.Fatal("tail reported for 19 samples")
	}
	if m := tailMetric("x", seq(19), "ms", "host"); m.NA == "" || m.N != 19 {
		t.Fatalf("19 samples: want n/a with n=19, got %+v", m)
	}
	for _, tc := range []struct {
		n       int
		pct, at float64
	}{
		{20, 50, 10},    // exactly ten beyond p50
		{39, 50, 20},    // p75 would leave only nine beyond
		{40, 75, 30},    // p75 leaves ten beyond
		{100, 90, 90},   // p95 would leave five
		{1000, 99, 990}, // p99.9 would leave one
	} {
		v, pct, ok := tail(seq(tc.n))
		if !ok || pct != tc.pct || v != tc.at {
			t.Errorf("n=%d: got p%g=%v ok=%v, want p%g=%v", tc.n, pct, v, ok, tc.pct, tc.at)
		}
	}
}

// manualClock is a hostTrace clock the test advances by hand.
type manualClock struct{ now time.Duration }

func (c *manualClock) at(ms int) { c.now = time.Duration(ms) * time.Millisecond }

func TestSelfTimeOverNestedSpans(t *testing.T) {
	clk := &manualClock{}
	ht := newHostTraceClock(func() time.Duration { return clk.now })
	root := ht.startRoot() // 0..100
	clk.at(10)
	a := ht.begin("a", "a") // 10..60
	clk.at(20)
	b := ht.begin("b", "") // 20..30, inside a
	clk.at(30)
	ht.end(b)
	clk.at(40)
	d := ht.begin("d", "") // 40..70: opened inside a, outlives it
	clk.at(60)
	ht.end(a)
	clk.at(70)
	ht.end(d)
	clk.at(80)
	c := ht.begin("c", "") // 80..90
	clk.at(90)
	ht.end(c)
	clk.at(100)
	ht.stopRoot(root)

	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	// d outlives a, so from 60 to 70 it is the innermost open span.
	want := map[string]float64{"trace.unattributed": 30, "a": 20, "b": 10, "d": 30, "c": 10}
	for k, v := range want {
		if got := ms(ht.self[k]); got != v {
			t.Errorf("self[%s] = %v ms, want %v", k, got, v)
		}
	}
	if got := ms(ht.incl["a"]); got != 50 {
		t.Errorf("inclusive a = %v ms, want 50", got)
	}
	var sum time.Duration
	for _, v := range ht.self {
		sum += v
	}
	if sum != ht.incl["trace.total"] || ms(sum) != 100 {
		t.Errorf("self times sum to %v, root lasted %v", sum, ht.incl["trace.total"])
	}
	// Nothing is recorded once the root is closed.
	if s := ht.begin("late", "late"); s != nil {
		t.Error("span opened after the root closed")
	}
}

// TestWrapperTotalsMatchStat runs a tiny ckpt-dense and checks the
// traced wrappers' byte totals against what the stores report: the
// upper wrapper's written bytes against Stat of every record (the
// dedup layer's wire size), the lower wrapper's against the memfs
// sizes of every block and manifest.
func TestWrapperTotalsMatchStat(t *testing.T) {
	p := newPass()
	ht := newHostTrace()
	spec := btSpec()
	spec.Scale, spec.Work = 1.0/256, 0.05
	fs := memfs.New()
	r, err := newRig(p, ht, clusterConfig(4, 7, spec.Scale), spec, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the store stack over a filesystem the test can inspect.
	r.lower = newTimedStore(imagestore.NewFS(fs), ht, lowerLabels)
	dedup := imagestore.NewDedup(r.lower)
	r.upper = newTimedStore(dedup, ht, upperLabels)
	r.c.Mgr.SetStore(r.upper)
	if err := r.settle(); err != nil {
		t.Fatal(err)
	}
	root := ht.startRoot()
	for i := 0; i < 2; i++ {
		if _, err := r.checkpoint(core.Options{Mode: core.Snapshot, Workers: 2, FlushTo: fmt.Sprintf("t/g%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	ht.stopRoot(root)

	var wire int64
	records := r.upper.List("t/")
	for _, f := range records {
		info, err := r.upper.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		wire += info.Size
	}
	if len(records) != 8 || wire != r.upper.bytesW || r.upper.recordsW != 8 {
		t.Errorf("upper wrapper wrote %d bytes in %d records; Stat reports %d bytes in %d",
			r.upper.bytesW, r.upper.recordsW, wire, len(records))
	}
	var stored int64
	for _, f := range fs.List("") {
		info, err := fs.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		stored += info.Size
	}
	if stored != r.lower.bytesW || stored != dedup.Usage().StoredBytes() {
		t.Errorf("lower wrapper wrote %d bytes; memfs holds %d, dedup reports %d stored",
			r.lower.bytesW, stored, dedup.Usage().StoredBytes())
	}
	if ht.self["imgfmt.encode_self"] <= 0 || ht.self["memfs.write"] <= 0 {
		t.Errorf("store spans not recorded: %v", ht.self)
	}
}

// TestNamesMatchBenchmarkJSON keeps the result line and BENCHMARK.json
// in step.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	wlNames := func(xs []struct{ Name, Why string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	var wl []string
	for i, w := range workloads {
		wl = append(wl, w.name)
		if i < len(spec.Workloads) && spec.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json why of %s = %q, benchmark has %q", w.name, spec.Workloads[i].Why, w.why)
		}
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"workloads", wlNames(spec.Workloads), wl},
		{"end_to_end", names(spec.EndToEnd), endToEndNames},
		{"per_layer", names(spec.PerLayer), perLayerNames},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s = %v, benchmark reports %v", c.what, c.got, c.want)
		}
	}
}
