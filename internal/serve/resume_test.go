package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// waitFrames polls a job until at least n frames completed.
func waitFrames(t *testing.T, s *Service, id string, n int) JobView {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		v, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.FramesDone >= n || v.State.terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck at %d/%d frames", v.FramesDone, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestKillRestartResumesAPIJob is the acceptance criterion: a daemon
// killed mid-job resumes from its last checkpoint after restart and
// produces a byte-identical final metrics document, without replaying
// the finished frames.
func TestKillRestartResumesAPIJob(t *testing.T) {
	spec := JobSpec{Experiments: []string{"fig1"}, APIFrames: 30}
	want := expectedJSON(t, spec)
	spool := t.TempDir()
	cfg := Config{Workers: 1, SpoolDir: spool, CheckpointEvery: 5}

	s1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let it render partway into the sweep (12 demos x 30 frames), then
	// pull the plug.
	mid := waitFrames(t, s1, v.ID, 40)
	if mid.State.terminal() {
		t.Fatalf("job finished before the kill: %+v", mid)
	}
	shutdownNow(t, s1)
	if after, _ := s1.Job(v.ID); after.State != StateQueued {
		t.Fatalf("job after shutdown = %s, want queued for resume", after.State)
	}
	if _, err := os.Stat(filepath.Join(spool, v.ID+".ckpt.json")); err != nil {
		t.Fatalf("no checkpoint on disk after shutdown: %v", err)
	}

	// "Restart the daemon": a new service over the same spool.
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s2)
	final := waitJob(t, s2, v.ID)
	if final.State != StateDone {
		t.Fatalf("resumed job = %s (%s)", final.State, final.Error)
	}
	if final.FramesRestored == 0 {
		t.Error("resume replayed every frame; want restored frames from the checkpoint")
	}
	if final.FramesRestored+36 < mid.FramesDone {
		// The checkpoint interval is 5, plus whole finished demos: the
		// resume may lose at most CheckpointEvery-1 frames of the
		// in-flight demo (and it persists at cancellation, so normally 0).
		t.Errorf("restored only %d of %d pre-kill frames", final.FramesRestored, mid.FramesDone)
	}
	got, err := s2.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("resumed result differs from the uninterrupted single-shot document")
	}
	if c := serviceCounter(t, s2, "serve/jobs_resumed"); c != 1 {
		t.Errorf("jobs_resumed = %d, want 1", c)
	}
	if fr := serviceCounter(t, s2, "serve/frames_restored"); int(fr) != final.FramesRestored {
		t.Errorf("frames_restored counter %d != job view %d", fr, final.FramesRestored)
	}
	// The finished job's checkpoint is gone; its result is durable.
	if _, err := os.Stat(filepath.Join(spool, v.ID+".ckpt.json")); !os.IsNotExist(err) {
		t.Errorf("checkpoint survived completion: %v", err)
	}
	if _, err := os.Stat(filepath.Join(spool, v.ID+".result.json")); err != nil {
		t.Errorf("result not in spool: %v", err)
	}
}

// TestKillRestartResumesSimJob checks demo-granularity resume for
// simulated work: completed sim demos are spliced from the checkpoint,
// not re-simulated, and the final document is byte-identical — for the
// classic Table I demos and for the multi-pass ones, whose restored
// demos must keep their per-pass snapshots.
func TestKillRestartResumesSimJob(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated render in -short mode")
	}
	for _, exp := range []string{"table7", "multipass"} {
		t.Run(exp, func(t *testing.T) {
			spec := JobSpec{Experiments: []string{exp}, SimFrames: 1, Width: 96, Height: 64}
			want := expectedJSON(t, spec)
			spool := t.TempDir()
			cfg := Config{Workers: 1, SpoolDir: spool}

			s1, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			v, err := s1.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			// Three simulated demos, one frame each: kill after the first
			// lands.
			mid := waitFrames(t, s1, v.ID, 1)
			if mid.State.terminal() {
				t.Fatalf("job finished before the kill: %+v", mid)
			}
			shutdownNow(t, s1)

			s2, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer shutdownNow(t, s2)
			final := waitJob(t, s2, v.ID)
			if final.State != StateDone {
				t.Fatalf("resumed job = %s (%s)", final.State, final.Error)
			}
			if final.FramesRestored == 0 {
				t.Error("no sim demo restored from the checkpoint")
			}
			got, err := s2.Result(v.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("resumed sim result differs from the uninterrupted document (%d bytes, want %d)",
					len(got), len(want))
			}
		})
	}
}

// TestRestartRestoresDoneJobsAndCache pins that a restart brings
// finished jobs back as done and re-primes the cache from the spool.
func TestRestartRestoresDoneJobsAndCache(t *testing.T) {
	spec := JobSpec{Experiments: []string{"table3"}, APIFrames: 8}
	spool := t.TempDir()
	cfg := Config{Workers: 1, SpoolDir: spool}

	s1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s1, v.ID)
	want, err := s1.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	shutdownNow(t, s1)

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s2)
	restored, err := s2.Job(v.ID)
	if err != nil || restored.State != StateDone {
		t.Fatalf("restored job = %+v, %v; want done", restored, err)
	}
	got, err := s2.Result(v.ID)
	if err != nil || !bytes.Equal(got, want) {
		t.Errorf("restored result differs (%v)", err)
	}
	// The cache is warm: the same spec completes instantly as a hit.
	hit, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Error("restarted service missed the cache on a stored result")
	}
	// New IDs keep counting past the restored ones.
	if !strings.HasPrefix(hit.ID, "j0002-") {
		t.Errorf("post-restart ID %s, want sequence to continue at j0002", hit.ID)
	}
}

// TestSpoolIgnoresMalformedFiles pins that junk in the spool does not
// block startup.
func TestSpoolIgnoresMalformedFiles(t *testing.T) {
	spool := t.TempDir()
	if err := os.WriteFile(filepath.Join(spool, "junk.job.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(spool, "x.job.json"),
		[]byte(`{"schema":"wrong/v0","id":"x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Config{SpoolDir: spool})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s)
	if n := len(s.Jobs()); n != 0 {
		t.Errorf("%d jobs from malformed spool files", n)
	}
}
