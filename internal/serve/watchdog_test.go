package serve

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"gpuchar/internal/fault"
)

// TestWatchdogReapsHungJob pins the reaper: a worker that ignores its
// expired deadline is abandoned after HangGrace, the job fails with the
// typed ErrJobHung, and the freed worker slot runs the next job to a
// byte-correct completion.
func TestWatchdogReapsHungJob(t *testing.T) {
	spec := JobSpec{Experiments: []string{"table3"}, APIFrames: 4}
	start := time.Now()
	want := expectedJSON(t, spec)
	// One hang: the first job blocks until the injector closes,
	// ignoring its context entirely — exactly what the watchdog is for.
	// JobTimeout must be generous enough for the healthy second job,
	// which the service runs on one worker while expectedJSON rendered
	// on NumCPU, so it scales with the measured reference render (slow
	// under -race on a small host). The hung job burns timeout + grace
	// before the reap.
	timeout := max(time.Second, 10*time.Since(start))
	inj := fault.New(3, fault.Rule{Site: fault.Exec, Kind: fault.Hang, Prob: 1, Count: 1})
	defer inj.Close()
	s, err := Open(Config{
		Workers:    1,
		Inject:     inj,
		JobTimeout: timeout,
		HangGrace:  150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s)

	v1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	hung := waitJob(t, s, v1.ID)
	if hung.State != StateFailed || hung.ErrorClass != "hung" {
		t.Fatalf("hung job = %+v; want failed/hung", hung)
	}
	if !strings.Contains(hung.Error, ErrJobHung.Error()) {
		t.Errorf("hung job error %q does not carry ErrJobHung", hung.Error)
	}
	if n := serviceCounter(t, s, "serve/recovered/jobs_reaped"); n != 1 {
		t.Errorf("jobs_reaped = %d; want 1", n)
	}

	// The worker slot survived: the next job completes correctly.
	v2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if final := waitJob(t, s, v2.ID); final.State != StateDone {
		t.Fatalf("job after reap = %+v; want done", final)
	}
	got, err := s.Result(v2.ID)
	if err != nil || !bytes.Equal(got, want) {
		t.Errorf("result after reap differs from clean run (%v)", err)
	}
}

// TestWorkerPanicContained pins panic recovery: an injected panic fails
// only its own job (typed, classified), and the daemon keeps serving.
func TestWorkerPanicContained(t *testing.T) {
	spec := JobSpec{Experiments: []string{"table3"}, APIFrames: 8}
	inj := fault.New(5, fault.Rule{Site: fault.Exec, Kind: fault.Panic, Prob: 1, Count: 1})
	defer inj.Close()
	s, err := Open(Config{Workers: 1, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s)

	v1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	crashed := waitJob(t, s, v1.ID)
	if crashed.State != StateFailed || crashed.ErrorClass != "panic" {
		t.Fatalf("panicked job = %+v; want failed/panic", crashed)
	}
	if n := serviceCounter(t, s, "serve/recovered/worker_panics"); n != 1 {
		t.Errorf("worker_panics = %d; want 1", n)
	}
	v2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if final := waitJob(t, s, v2.ID); final.State != StateDone {
		t.Fatalf("job after panic = %+v; want done", final)
	}
}

// TestInjectedExecErrorTyped pins that a plain injected fault surfaces
// as a typed, classified failure and lands in the per-site metrics.
func TestInjectedExecErrorTyped(t *testing.T) {
	inj := fault.New(9, fault.Rule{Site: fault.Exec, Kind: fault.Err, Prob: 1, Count: 1})
	defer inj.Close()
	s, err := Open(Config{Workers: 1, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s)

	v, err := s.Submit(JobSpec{Experiments: []string{"table3"}, APIFrames: 4})
	if err != nil {
		t.Fatal(err)
	}
	failed := waitJob(t, s, v.ID)
	if failed.State != StateFailed || failed.ErrorClass != "injected" {
		t.Fatalf("job = %+v; want failed/injected", failed)
	}
	if n := serviceCounter(t, s, "serve/faults/exec"); n != 1 {
		t.Errorf("faults/exec = %d; want 1", n)
	}
}

// TestTraceReadFaultTyped pins the trace_read boundary: an I/O fault
// in the replayed stream must fail the job with an error, never hang
// it or produce a silently wrong result.
func TestTraceReadFaultTyped(t *testing.T) {
	raw := recordSmallTrace(t)
	inj := fault.New(11, fault.Rule{Site: fault.TraceRead, Kind: fault.Err, Prob: 1, Count: 1})
	defer inj.Close()
	s, err := Open(Config{Workers: 1, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s)

	v, err := s.Submit(JobSpec{Trace: raw})
	if err != nil {
		t.Fatal(err)
	}
	failed := waitJob(t, s, v.ID)
	if failed.State != StateFailed {
		t.Fatalf("corrupted replay = %+v; want failed", failed)
	}
	if failed.Error == "" {
		t.Error("corrupted replay failed without an error message")
	}
}

// TestHangGraceAllowsCheckpoint pins the grace window's purpose: a job
// that reacts to cancellation within HangGrace is not reaped.
func TestHangGraceAllowsCheckpoint(t *testing.T) {
	s, err := Open(Config{Workers: 1, HangGrace: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s)
	v, err := s.Submit(JobSpec{Experiments: []string{"table3"}, APIFrames: 400})
	if err != nil {
		t.Fatal(err)
	}
	waitFramesAny(t, s, v.ID, 5)
	if err := s.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, s, v.ID)
	if final.State != StateCanceled {
		t.Fatalf("canceled job = %+v; want canceled", final)
	}
	if n := serviceCounter(t, s, "serve/recovered/jobs_reaped"); n != 0 {
		t.Errorf("jobs_reaped = %d for a well-behaved cancel; want 0", n)
	}
}

// waitFramesAny waits until the job reports at least n finished frames.
func waitFramesAny(t *testing.T, s *Service, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		v, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.FramesDone >= n || v.State.terminal() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %d frames", id, v.FramesDone)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
