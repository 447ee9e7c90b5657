package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gpuchar/internal/fault"
)

// TestSealOpenRoundTrip pins the envelope format: the body round-trips
// byte-identically, a flipped bit fails the checksum, and a foreign
// schema is rejected.
func TestSealOpenRoundTrip(t *testing.T) {
	body := []byte(`{"schema":"gpuchar/job/v1","id":"j0001-aaaa"}`)
	doc, err := seal(JobFileSchema, body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := openSealed(doc, JobFileSchema)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Errorf("body did not round-trip: %q != %q", got, body)
	}

	// Flip one bit inside the base64 body and the checksum must catch it.
	var env envelope
	if err := json.Unmarshal(doc, &env); err != nil {
		t.Fatal(err)
	}
	env.Body[3] ^= 0x40
	tampered, _ := json.Marshal(env)
	if _, err := openSealed(tampered, JobFileSchema); err == nil {
		t.Error("tampered envelope passed its checksum")
	}

	if _, err := openSealed(doc, ResultFileSchema); err == nil {
		t.Error("job envelope accepted under the result schema")
	}
}

// TestBareV1DocsQuarantined pins that pre-v1.1 bare documents, written
// before the checksummed envelope existed, are not trusted: a bare job,
// checkpoint or result file fails its schema check on load and is moved
// to quarantine/ and counted, like any other corrupt spool file.
func TestBareV1DocsQuarantined(t *testing.T) {
	const id = "j0001-aaaa"
	spec := JobSpec{Experiments: []string{"table3"}, APIFrames: 4}.normalized()
	// Neither document can fail to marshal.
	bareJob, _ := json.Marshal(jobFile{Schema: jobBodySchema, ID: id, Spec: spec})
	bareCkpt, _ := json.Marshal(newCheckpoint(id, spec.key()))
	bareResult := []byte(`{"schema":"gpuchar/metrics/v1","snapshots":[]}`)
	cases := []struct {
		name, file, counter string
		sealedJob           bool // a valid job file rides along, so the job runs
		bare                []byte
	}{
		{"job", id + ".job.json", "serve/recovered/jobs_quarantined", false, bareJob},
		{"checkpoint", id + ".ckpt.json", "serve/recovered/checkpoints_quarantined", true, bareCkpt},
		{"result", id + ".result.json", "serve/recovered/results_quarantined", true, bareResult},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.sealedJob {
				if err := newSpool(dir, nil).writeJob(&Job{ID: id, Spec: spec}); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, tc.file), tc.bare, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(Config{Workers: 1, SpoolDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer shutdownNow(t, s)
			if tc.sealedJob {
				if v := waitJob(t, s, id); v.State != StateDone {
					t.Fatalf("job = %+v; want done", v)
				}
				if got, err := s.Result(id); err != nil || bytes.Equal(got, bareResult) {
					t.Errorf("result served from the bare file (%v)", err)
				}
			} else if n := len(s.Jobs()); n != 0 {
				t.Errorf("%d jobs from a bare job file", n)
			}
			if n := serviceCounter(t, s, tc.counter); n != 1 {
				t.Errorf("%s = %d; want 1", tc.counter, n)
			}
			if _, err := os.Stat(filepath.Join(dir, "quarantine", tc.file)); err != nil {
				t.Errorf("bare %s not moved to quarantine: %v", tc.name, err)
			}
		})
	}
}

// TestCorruptResultQuarantinedOnRestart is the quarantine acceptance
// path: a bit-rotted result file is moved aside and counted, never
// served — the restarted service re-renders and the final result is
// byte-identical to a clean run.
func TestCorruptResultQuarantinedOnRestart(t *testing.T) {
	spec := JobSpec{Experiments: []string{"table3"}, APIFrames: 8}
	want := expectedJSON(t, spec)
	dir := t.TempDir()
	cfg := Config{Workers: 1, SpoolDir: dir}

	s1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s1, v.ID)
	shutdownNow(t, s1)

	// Rot one byte mid-file.
	path := filepath.Join(dir, v.ID+".result.json")
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc[len(doc)/2] ^= 0x01
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s2)
	final := waitJob(t, s2, v.ID)
	if final.State != StateDone {
		t.Fatalf("job after quarantine = %+v; want done", final)
	}
	got, err := s2.Result(v.ID)
	if err != nil || !bytes.Equal(got, want) {
		t.Errorf("re-rendered result differs from clean run (%v)", err)
	}
	if n := serviceCounter(t, s2, "serve/recovered/results_quarantined"); n != 1 {
		t.Errorf("results_quarantined = %d; want 1", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", v.ID+".result.json")); err != nil {
		t.Errorf("corrupt result not moved to quarantine: %v", err)
	}
}

// TestCorruptJobFileQuarantined pins the same for submission records:
// scan quarantines a checksum-failing job file and keeps going.
func TestCorruptJobFileQuarantined(t *testing.T) {
	dir := t.TempDir()
	doc, err := seal(JobFileSchema, []byte(`{"schema":"gpuchar/job/v1","id":"j0001-aaaa"}`))
	if err != nil {
		t.Fatal(err)
	}
	doc[len(doc)-10] ^= 0x01
	if err := os.WriteFile(filepath.Join(dir, "j0001-aaaa.job.json"), doc, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Config{SpoolDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s)
	if n := len(s.Jobs()); n != 0 {
		t.Errorf("%d jobs from a corrupt spool file", n)
	}
	if n := serviceCounter(t, s, "serve/recovered/jobs_quarantined"); n != 1 {
		t.Errorf("jobs_quarantined = %d; want 1", n)
	}
}

// TestDegradedShedsLoad drives the spool-failure path: consecutive
// write failures trip load shedding (ErrDegraded, /healthz false), a
// cooldown or a successful write clears it.
func TestDegradedShedsLoad(t *testing.T) {
	spec := JobSpec{Experiments: []string{"table3"}, APIFrames: 4}
	// The deterministic schedule: skip the Open-time MkdirAll (FSWrite
	// op 1), fail exactly the next two writes — the two job files. A
	// Slow exec fault parks the worker so it makes no spool writes of
	// its own during the test window.
	inj := fault.New(7,
		fault.Rule{Site: fault.FSWrite, Kind: fault.Err, Prob: 1, After: 1, Count: 2},
		fault.Rule{Site: fault.Exec, Kind: fault.Slow, Prob: 1, Count: 100, Delay: time.Hour})
	defer inj.Close()
	dir := t.TempDir()
	s, err := Open(Config{
		Workers: 1, SpoolDir: dir,
		FS:            fault.NewFaulty(fault.OS{}, inj),
		DegradedAfter: 2, DegradedFor: 250 * time.Millisecond,
		CheckpointEvery: -1, // keep the worker away from the write budget
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s)

	// Two failed job-file writes trip the breaker...
	if _, err := s.Submit(spec); err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	if _, err := s.Submit(JobSpec{Experiments: []string{"fig1"}, APIFrames: 4}); err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	// ...so the third submission is shed with the typed error.
	if _, err := s.Submit(JobSpec{Experiments: []string{"fig2"}, APIFrames: 4}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("submit while degraded = %v; want ErrDegraded", err)
	}
	if ok, detail := s.Health(); ok || detail == "ok" {
		t.Errorf("Health() = %v %q while degraded", ok, detail)
	}
	if n := serviceCounter(t, s, "serve/degraded"); n != 1 {
		t.Errorf("degraded gauge = %d; want 1", n)
	}
	if n := serviceCounter(t, s, "serve/jobs_shed"); n != 1 {
		t.Errorf("jobs_shed = %d; want 1", n)
	}

	// The cooldown expires (and the fault rule is exhausted), so the
	// service heals and accepts work again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := s.Submit(JobSpec{Experiments: []string{"fig2"}, APIFrames: 4}); err == nil {
			break
		} else if !errors.Is(err, ErrDegraded) {
			t.Fatalf("submit after cooldown: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("service never recovered from degraded mode")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if ok, _ := s.Health(); !ok {
		t.Error("Health() still false after recovery")
	}
}
