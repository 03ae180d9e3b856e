package main

import (
	"fmt"
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// summary reduces a sample set to what the benchmark reports for a timing:
// the median and the highest percentile, up to p99, that still has at
// least tailBeyond samples beyond it, with the sample count.
type summary struct {
	n       int
	p50     float64
	tail    float64 // value at tailPct
	tailPct float64 // 99, or lower when there are too few samples
}

// summarize computes nearest-rank percentiles (see rank). With fewer than
// 2*tailBeyond samples no percentile above the median qualifies and the
// tail is the median.
func summarize(xs []float64) summary {
	s := summary{n: len(xs)}
	if s.n == 0 {
		return s
	}
	v := sorted(xs)
	mid := rank(50, s.n)
	k, pct := rank(99, s.n), 99.0
	if s.n-k < tailBeyond {
		k = s.n - tailBeyond
		pct = 100 * float64(k) / float64(s.n)
	}
	if k < mid {
		k, pct = mid, 50
	}
	s.p50, s.tail, s.tailPct = v[mid-1], v[k-1], pct
	return s
}

// rank is the 1-based nearest rank of the p-th percentile of n samples:
// the ceil(p/100*n)-th smallest, clamped to [1, n].
func rank(p float64, n int) int {
	// The epsilon keeps float error in an exact p*n/100 from adding a rank.
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(k, 1), n)
}

func sorted(xs []float64) []float64 {
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	return v
}

// percentile is the nearest-rank p-th percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[rank(p, len(xs))-1]
}

// median is the nearest-rank median of xs (0 when empty).
func median(xs []float64) float64 { return percentile(xs, 50) }

// Phases are reported as the median, over up to maxK equal windows of each
// phase's duration, of each window's summary and rate, so a burst that
// slows part of one run (a neighbour on the host, a GC) moves the result
// less than a whole-phase percentile would. Windows hold at least
// minWindowSamples samples; a smaller phase is one window.
const (
	maxWindows       = 5
	minWindowSamples = 1500
)

type phaseStats struct {
	n, windows int
	p50, tail  float64
	tailPct    float64 // lowest tail percentile of any window
	rate       float64 // samples per second
}

func phaseSummary(phases []*phaseResult, of func(*phaseResult) []*clientResult, maxK int) phaseStats {
	st := phaseStats{tailPct: 99}
	var p50s, tails, rates []float64
	for _, ph := range phases {
		var lat, at []float64
		for _, c := range of(ph) {
			lat = append(lat, c.lat...)
			at = append(at, c.at...)
		}
		k := max(1, min(maxK, len(lat)/minWindowSamples))
		windows := make([][]float64, k)
		for i, x := range lat {
			w := min(k-1, max(0, int(at[i]/ph.seconds*float64(k))))
			windows[w] = append(windows[w], x)
		}
		for _, w := range windows {
			s := summarize(w)
			p50s, tails = append(p50s, s.p50), append(tails, s.tail)
			rates = append(rates, float64(len(w))/(ph.seconds/float64(k)))
			st.tailPct = min(st.tailPct, s.tailPct)
		}
		st.n += len(lat)
		st.windows += k
	}
	st.p50, st.tail, st.rate = midMedian(p50s), midMedian(tails), midMedian(rates)
	return st
}

// midMedian is the median of a few values, averaging the middle two of an
// even count.
func midMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v := sorted(xs)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}

func (p phaseStats) note(probe bool) string {
	s := fmt.Sprintf("n=%d, median of %d window(s)", p.n, p.windows)
	if probe {
		s += ", probe"
	}
	return s
}
