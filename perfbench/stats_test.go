package main

import (
	"reflect"
	"testing"
	"time"
)

func TestBySlice(t *testing.T) {
	s := time.Second
	// A 10 s period in five 2 s slices; the second slice is empty, and
	// an op starting at the very end falls in the last slice.
	at := []time.Duration{0, s, 5 * s, 5 * s, 7 * s, 9 * s, 10 * s}
	got := bySlice(at, 10*s)
	want := [][]int{{0, 1}, {2, 3}, {4}, {5, 6}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("bySlice = %v, want %v", got, want)
	}
}

func TestBest(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := best(xs, false); got != 1 {
		t.Errorf("best lower = %v, want 1", got)
	}
	if got := best(xs, true); got != 3 {
		t.Errorf("best higher = %v, want 3", got)
	}
	if got := best(nil, false); got != 0 {
		t.Errorf("best of none = %v, want 0", got)
	}
}

// TestCalmTail checks that calmTail removes a slow slice's level shift
// but keeps the spread of ops within a slice and between classes.
func TestCalmTail(t *testing.T) {
	var lat []float64
	var class []int
	var groups [][]int
	// Slice 0 is calm, slice 1 runs twice as slow. Each holds 12 hits
	// of 1 ms (one of 1.5 ms) and 12 cold ops of 100 ms.
	for _, speed := range []float64{1, 2} {
		var g []int
		for i := 0; i < 12; i++ {
			hit := 1.0
			if i == 0 {
				hit = 1.5
			}
			g = append(g, len(lat), len(lat)+1)
			lat = append(lat, hit*speed, 100*speed)
			class = append(class, 0, 1)
		}
		groups = append(groups, g)
	}
	v, _ := calmTail(lat, class, groups)
	if v != 100 {
		t.Errorf("calmTail = %v, want 100 (the cold class at the calm slice's speed)", v)
	}
	// One class, 13 ops per slice, 6 of them 1.5 times the median: the
	// slow slice's ops scale down to the calm slice's level, so the 12
	// outliers make the tail.
	var hits []float64
	var hg [][]int
	for _, speed := range []float64{1, 2} {
		var g []int
		for i := 0; i < 13; i++ {
			x := 1.0
			if i < 6 {
				x = 1.5
			}
			g = append(g, len(hits))
			hits = append(hits, x*speed)
		}
		hg = append(hg, g)
	}
	v, _ = calmTail(hits, nil, hg)
	if v != 1.5 {
		t.Errorf("calmTail one class = %v, want 1.5", v)
	}
}
