package main

import (
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailSamples is how many samples must lie beyond a reported tail value.
const tailSamples = 10

// tail returns the highest percentile of xs that has at least ten
// samples beyond it — the eleventh-largest sample — together with that
// percentile. With ten samples or fewer it is the maximum, reported as
// percentile 100.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sorted(xs)
	if n <= tailSamples {
		return s[n-1], 100
	}
	return s[n-1-tailSamples], 100 * float64(n-tailSamples) / float64(n)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// A run reports op_ms and work_per_s from the best group of its ops: the
// best repeat on the simulator workloads, the best of slices equal time
// slices on service_mix. The shared host's neighbours slow it in
// episodes of seconds to minutes and only ever add time, so, like the
// best of timeit's repeats, the calmest group is the closest estimate of
// the program's own cost. It moves far less from run to run than the
// median of the whole run, which the detail lines still print.
const slices = 5

// bySlice groups op indices by the slice of the timed period (period
// long) that each op's start offset in at falls in, dropping empty
// slices.
func bySlice(at []time.Duration, period time.Duration) [][]int {
	groups := make([][]int, slices)
	for i, t := range at {
		k := sliceOf(t, period)
		groups[k] = append(groups[k], i)
	}
	out := groups[:0]
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// sliceOf is the slice of the timed period (period long) that offset t
// falls in.
func sliceOf(t, period time.Duration) int {
	return min(max(int(int64(t)*slices/int64(period)), 0), slices-1)
}

// pick returns xs at the indices idx.
func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// perSlice evaluates stat over the values of each group of op indices.
func perSlice(groups [][]int, xs []float64, stat func([]float64) float64) []float64 {
	out := make([]float64, len(groups))
	for i, g := range groups {
		out[i] = stat(pick(xs, g))
	}
	return out
}

// best is the lowest of xs, or the highest when higher is better; 0 for
// no values.
func best(xs []float64, higher bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if higher {
		return s[len(s)-1]
	}
	return s[0]
}

// calmTail is the tail (see tail) of op latencies lat after scaling each
// op from the speed of its group (a slice or repeat) to that of the
// calmest group: an op's latency is multiplied by its class's best group
// median over its own group's median. It keeps the spread of ops within a
// group (jitter, GC pauses, a mix's slow class) and drops the host's slow
// episodes between groups. class gives each op's class, 0 or 1; nil
// means one class.
func calmTail(lat []float64, class []int, groups [][]int) (value, pct float64) {
	cls := func(i int) int {
		if class == nil {
			return 0
		}
		return class[i]
	}
	sliceMed := make([][2]float64, len(groups))
	var bestMed [2]float64
	for s, g := range groups {
		var by [2][]float64
		for _, i := range g {
			by[cls(i)] = append(by[cls(i)], lat[i])
		}
		for c, xs := range by {
			if len(xs) == 0 {
				continue
			}
			m := median(xs)
			sliceMed[s][c] = m
			if bestMed[c] == 0 || m < bestMed[c] {
				bestMed[c] = m
			}
		}
	}
	var scaled []float64
	for s, g := range groups {
		for _, i := range g {
			c := cls(i)
			scaled = append(scaled, lat[i]*ratio(bestMed[c], sliceMed[s][c]))
		}
	}
	return tail(scaled)
}
