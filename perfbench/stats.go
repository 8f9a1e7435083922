package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie above a reported percentile:
// a p90 from 40 samples rests on 4 values and moves with each of them.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of xs by nearest rank.
// It refuses when fewer than minTail samples lie strictly above the
// chosen rank, so every reported tail percentile is backed by at least
// ten slower samples.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", 100*q)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if above := n - 1 - idx; above < minTail {
		return 0, fmt.Errorf("percentile p%g of %d samples has %d above it, want at least %d",
			100*q, n, above, minTail)
	}
	return s[idx], nil
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean returns the geometric mean of positive xs; 0 for no samples.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// classMedianGeomean is the latency summary of a fixed rotation of op
// classes (one class per pattern): the geometric mean of each class's
// median. A pooled median over equally weighted classes of different
// cost sits on the boundary between two classes and jumps between them
// run to run; the per-class medians do not.
func classMedianGeomean(byClass map[string][]float64) float64 {
	keys := make([]string, 0, len(byClass))
	for k := range byClass {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	meds := make([]float64, 0, len(keys))
	for _, k := range keys {
		if len(byClass[k]) > 0 {
			meds = append(meds, median(byClass[k]))
		}
	}
	return geomean(meds)
}

// slices is how many equal slices a window is cut into for the sliced
// statistics below. Neighbours share the host: a burst of their load
// covering a few slices moves the median slice little, where it would
// move a whole-window figure in proportion to its length.
const slices = 10

// slicedRate returns the median over the window's slices of the ops
// completed per second in each slice.
func slicedRate(ends []time.Time, start time.Time, window time.Duration) float64 {
	counts := make([]float64, slices)
	w := window / slices
	for _, e := range ends {
		if i := int(e.Sub(start) / w); i >= 0 && i < slices {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= w.Seconds()
	}
	return median(counts)
}

// slicedQuantile returns the median over the window's slices of each
// slice's q-quantile of the samples that completed in it (ends[i] is
// when xs[i] completed). Each slice's quantile must have minTail
// samples above it.
func slicedQuantile(xs []float64, ends []time.Time, start time.Time, window time.Duration, q float64) (float64, error) {
	per := make([][]float64, slices)
	w := window / slices
	for i, e := range ends {
		if s := int(e.Sub(start) / w); s >= 0 && s < slices {
			per[s] = append(per[s], xs[i])
		}
	}
	qs := make([]float64, slices)
	for i, p := range per {
		v, err := percentile(p, q)
		if err != nil {
			return 0, fmt.Errorf("slice %d: %w", i, err)
		}
		qs[i] = v
	}
	return median(qs), nil
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
