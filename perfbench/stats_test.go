package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: summarize must sort
	}
	return xs
}

func TestSummarize(t *testing.T) {
	for _, tc := range []struct {
		n                 int
		p50, tail, pct    float64
		wantBeyondAtLeast int
	}{
		{n: 1000, p50: 500, tail: 990, pct: 99, wantBeyondAtLeast: 10},
		{n: 2000, p50: 1000, tail: 1980, pct: 99, wantBeyondAtLeast: 20},
		// p99 of 500 has 5 samples beyond it: fall back to the highest
		// percentile with 10 beyond.
		{n: 500, p50: 250, tail: 490, pct: 98, wantBeyondAtLeast: 10},
		{n: 40, p50: 20, tail: 30, pct: 75, wantBeyondAtLeast: 10},
		// Too few samples for any tail above the median.
		{n: 15, p50: 8, tail: 8, pct: 50},
		{n: 1, p50: 1, tail: 1, pct: 50},
	} {
		s := summarize(seq(tc.n))
		if s.n != tc.n || s.p50 != tc.p50 || s.tail != tc.tail || s.tailPct != tc.pct {
			t.Errorf("n=%d: got n=%d p50=%v tail=%v (p%v), want p50=%v tail=%v (p%v)",
				tc.n, s.n, s.p50, s.tail, s.tailPct, tc.p50, tc.tail, tc.pct)
		}
		if beyond := tc.n - int(s.tail); beyond < tc.wantBeyondAtLeast {
			t.Errorf("n=%d: %d samples beyond the tail, want >= %d", tc.n, beyond, tc.wantBeyondAtLeast)
		}
	}
	if s := summarize(nil); s.n != 0 || s.p50 != 0 || s.tail != 0 {
		t.Errorf("empty: got %+v", s)
	}
}

func TestPercentileAndMedians(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	if got := midMedian([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("midMedian even = %v, want 2.5", got)
	}
	if got := midMedian([]float64{3, 1, 2}); got != 2 {
		t.Errorf("midMedian odd = %v, want 2", got)
	}
}

// A burst confined to one of five windows must not move the reported
// median, tail or rate.
func TestPhaseSummaryIgnoresOneBurstWindow(t *testing.T) {
	c := newClientResult(time.Now())
	const n, seconds = 10000, 10.0
	for i := 0; i < n; i++ {
		at := seconds * float64(i) / n
		lat := 1.0 + float64(i%100)/100 // 1.00 .. 1.99 ms in every window
		if at >= 4 && at < 6 {
			lat *= 50 // the burst: window 3 of 5
		}
		c.lat = append(c.lat, lat)
		c.at = append(c.at, at)
	}
	st := phaseSummary([]*phaseResult{{seconds: seconds, reads: []*clientResult{c}}}, readsOf, maxWindows)
	if st.windows != 5 || st.n != n {
		t.Fatalf("windows=%d n=%d, want 5 and %d", st.windows, st.n, n)
	}
	if math.Abs(st.p50-1.49) > 1e-9 || math.Abs(st.tail-1.98) > 1e-9 || st.tailPct != 99 {
		t.Errorf("p50=%v tail=%v (p%v), want 1.49, 1.98 (p99)", st.p50, st.tail, st.tailPct)
	}
	if math.Abs(st.rate-1000) > 1e-9 {
		t.Errorf("rate = %v, want 1000/s", st.rate)
	}
}

// Fewer than minWindowSamples samples make one window: a plain summary.
func TestPhaseSummarySmallPhase(t *testing.T) {
	c := newClientResult(time.Now())
	for i := 0; i < 1000; i++ {
		c.lat = append(c.lat, float64(i+1))
		c.at = append(c.at, float64(i)/500)
	}
	st := phaseSummary([]*phaseResult{{seconds: 2, reads: []*clientResult{c}}}, readsOf, maxWindows)
	s := summarize(c.lat)
	if st.windows != 1 || st.p50 != s.p50 || st.tail != s.tail || st.rate != 500 {
		t.Errorf("got %+v, want one window matching %+v at 500/s", st, s)
	}
}
