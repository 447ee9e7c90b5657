// Benchmarks for the parallel characterization engine: the tile-parallel
// fragment backend (Config.TileWorkers) and the coarse experiment
// fan-out (Context.Workers), each swept over worker counts so
// `go test -bench 'PipelineFrame|CharacterizeAll' -benchmem` shows the
// scaling curve and the allocation profile on one line per count.
package gpuchar_test

import (
	"fmt"
	"runtime"
	"testing"

	"gpuchar"
)

// workerCounts returns the benchmark sweep: 1, 2, 4, 8 and NumCPU when
// it exceeds the fixed points. Counts above NumCPU still run — the
// bucket scheduler's behavior under oversubscription is part of what
// the sweep pins down.
func workerCounts() []int {
	counts := []int{1, 2, 4, 8}
	if n := runtime.NumCPU(); n > 8 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkPipelineFrame renders Doom3 frames through the full simulator
// at each tile-worker count. workers=1 is the serial pipeline; the
// framebuffer is identical at every count.
func BenchmarkPipelineFrame(b *testing.B) {
	for _, n := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			benchFrames(b, "Doom3/trdemo2", n, nil)
		})
	}
}

// BenchmarkCharacterizeAll regenerates every paper experiment at each
// coarse worker count — the `characterize -exp all -workers N` path.
// Output is identical at every count; only wall clock changes.
func BenchmarkCharacterizeAll(b *testing.B) {
	var ids []string
	for _, e := range gpuchar.Experiments() {
		ids = append(ids, e.ID)
	}
	counts := []int{1, runtime.NumCPU()}
	if counts[1] == 1 {
		counts = counts[:1]
	}
	for _, n := range counts {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx := benchCtx()
				ctx.Workers = n
				if _, err := gpuchar.RunExperiments(ids, ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
