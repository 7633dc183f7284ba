package main

import (
	"math"
	"sort"
)

// metric is one self-describing figure of a run.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Clock is "sim" (the cost model's virtual time, deterministic per
	// seed), "host" (wall time of this Go process) or "count".
	Clock string `json:"clock"`
	// Basis names what a byte figure counts: "logical" (application
	// state), "wire" (framed and compressed records) or "stored" (after
	// dedup).
	Basis string `json:"basis,omitempty"`
	// N is the number of samples behind the value.
	N int `json:"n"`
	// TailPct is the percentile a .tail metric resolved to.
	TailPct float64 `json:"tail_pct,omitempty"`
	// NA says why the metric does not apply to the workload; Value is
	// then 0.
	NA string `json:"na,omitempty"`
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// tailLadder is the set of percentiles a .tail metric may resolve to,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minTailSamples is the sample count below which no tail is reported:
// the lowest rung, p50, needs ten samples beyond it.
const minTailSamples = 20

// tail returns the highest ladder percentile (nearest rank) that has at
// least ten samples beyond it. ok is false below minTailSamples.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n < minTailSamples {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= 10 {
			return s[rank-1], p, true
		}
	}
	return 0, 0, false
}
