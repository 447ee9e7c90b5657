package main

import (
	"bytes"
	"os"
	"strconv"
	"time"
)

// userHZ is the unit of /proc/stat's CPU times: 100 ticks per second on
// every Linux architecture the benchmark runs on.
const userHZ = 100

// stealTime returns the guest's cumulative steal time over all its CPUs:
// time the hypervisor ran something else while a virtual CPU of this
// machine had work. It reads the aggregate cpu line of /proc/stat and
// returns 0 where that is unavailable, so nothing is subtracted there.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(string(f[8]), 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHZ
}

// runWall is an op's wall time less the steal time that fell in it,
// shared among the busy CPUs: the time the op had its CPUs. It keeps at
// least a tenth of the wall time, as steal is counted in 10 ms ticks
// over the whole machine.
func runWall(wall, steal time.Duration, busy int) time.Duration {
	return max(wall-steal/time.Duration(busy), wall/10)
}

// stealMarks reads stealTime at start and at the end of each slice of the
// timed period (period long), or at once for the slices left when stop
// closes.
func stealMarks(start time.Time, period time.Duration, stop <-chan struct{}) []time.Duration {
	marks := []time.Duration{stealTime()}
	for k := 1; k <= slices; k++ {
		select {
		case <-stop:
		case <-time.After(time.Until(start.Add(period * time.Duration(k) / slices))):
		}
		marks = append(marks, stealTime())
	}
	return marks
}

// stealShares turns stealMarks into the share of each slice's CPU time
// (cpus CPUs over period/slices) the hypervisor took, at most 0.9.
func stealShares(marks []time.Duration, period time.Duration, cpus int) []float64 {
	out := make([]float64, len(marks)-1)
	for k := range out {
		out[k] = min(ratio(float64(marks[k+1]-marks[k]), float64(period)/slices*float64(cpus)), 0.9)
	}
	return out
}
