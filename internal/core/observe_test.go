package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"gpuchar/internal/obsv"
)

// TestLiveSnapshotsFollowFrameBoundaries pins the live /metrics feed:
// while a simulated demo renders, LiveSnapshots carries its cumulative
// counters at the last frame boundary (state="running"); once it
// finishes, only the finished aggregate (state="done") remains.
func TestLiveSnapshotsFollowFrameBoundaries(t *testing.T) {
	const demo = "UT2004/Primeval"
	c := NewContext()
	c.SimFrames = 2
	c.W, c.H = 96, 64
	c.Progress = obsv.NewProgressTracker(0)
	var quads []int64
	c.Progress.OnFrame = func(name string, frame int) {
		snaps := c.LiveSnapshots()
		if len(snaps) != 1 || snaps[0].Label(LabelDemo) != name ||
			snaps[0].Label(LabelState) != StateRunning {
			t.Fatalf("frame %d: live snapshots = %v, want one running %s", frame, snaps, name)
		}
		q, _ := snaps[0].Get("rast/quads_emitted")
		quads = append(quads, q)
	}
	r, err := c.Micro(demo)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for i, f := range r.Frames {
		sum += f.Rast.QuadsEmitted
		if i >= len(quads) || quads[i] != sum {
			t.Errorf("frame %d: live quads_emitted %v, want cumulative %d", i, quads, sum)
		}
	}
	snaps := c.LiveSnapshots()
	if len(snaps) != 1 || snaps[0].Label(LabelState) != StateDone {
		t.Errorf("after the render: live snapshots = %v, want one done aggregate", snaps)
	}
}

// TestLiveSnapshotsConcurrentScrape scrapes the live feed while a
// two-worker sweep renders, as the /metrics endpoint does; run it under
// -race.
func TestLiveSnapshotsConcurrentScrape(t *testing.T) {
	c := NewContext()
	c.SimFrames = 2
	c.W, c.H = 64, 48
	c.Workers = 2
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for _, s := range c.LiveSnapshots() {
				if st := s.Label(LabelState); st != StateRunning && st != StateDone {
					t.Errorf("snapshot state %q", st)
				}
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	_, err := RunExperiments(context.Background(), c, []string{"table7"})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if snaps := c.LiveSnapshots(); len(snaps) != len(SimDemos) {
		t.Errorf("%d snapshots after the sweep, want one done aggregate per simulated demo (%d)",
			len(snaps), len(SimDemos))
	}
}
