package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// renderTables renders every table of every non-nil result to text.
func renderTables(results []*Result) string {
	var b bytes.Buffer
	for _, res := range results {
		if res == nil {
			continue
		}
		for _, t := range res.Tables {
			t.Render(&b)
		}
	}
	return b.String()
}

// dropLines removes the lines mentioning substr.
func dropLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if !strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// normalize strips the width-dependent table padding (dropping the
// longest demo name narrows every column) so comparisons see only the
// cell contents.
func normalize(s string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Trim(line, "- ") == "" {
			continue // column-width separator rule
		}
		fields := strings.Split(line, "|")
		for i := range fields {
			fields[i] = strings.TrimSpace(fields[i])
		}
		out = append(out, strings.Join(fields, "|"))
	}
	return strings.Join(out, "\n")
}

// TestKeepGoingPoisonedDemo is the fault-isolation acceptance test: with
// one demo's render deliberately panicking, a keep-going parallel sweep
// must still emit every other demo's rows byte-identical to a clean run
// and report the casualty with its name and crash position.
func TestKeepGoingPoisonedDemo(t *testing.T) {
	const poisoned = "Doom3/trdemo1"
	ids := []string{"table3", "table5", "table12"}

	clean := NewContext()
	clean.APIFrames = 8
	cleanRes, err := RunExperiments(context.Background(), clean, ids)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	setTestRenderHook(func(demo string) {
		if demo == poisoned {
			panic("poisoned for test")
		}
	})
	defer setTestRenderHook(nil)

	ctx := NewContext()
	ctx.APIFrames = 8
	ctx.KeepGoing = true
	ctx.Workers = 4
	gotRes, err := RunExperiments(context.Background(), ctx, ids)
	if err == nil {
		t.Fatal("poisoned keep-going run returned no error")
	}
	var errs ExperimentErrors
	if !errors.As(err, &errs) {
		t.Fatalf("error is %T, want ExperimentErrors", err)
	}
	if len(errs) != 1 || errs[0].Demo != poisoned {
		t.Fatalf("errs = %v, want one failure for %s", errs, poisoned)
	}
	msg := errs.Error()
	if !strings.Contains(msg, poisoned) || !strings.Contains(msg, "panic at frame") {
		t.Errorf("failure report %q lacks demo name or crash position", msg)
	}

	want := normalize(dropLines(renderTables(cleanRes), poisoned))
	got := normalize(renderTables(gotRes))
	if got != want {
		t.Errorf("surviving rows differ from clean run:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// TestKeepGoingPoisonedSimDemo checks the same isolation on the
// simulated path, where the poisoned demo feeds a Micro experiment.
func TestKeepGoingPoisonedSimDemo(t *testing.T) {
	const poisoned = "UT2004/Primeval"
	ids := []string{"table7"}

	clean := NewContext()
	clean.SimFrames = 1
	clean.W, clean.H = 256, 192
	cleanRes, err := RunExperiments(context.Background(), clean, ids)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	setTestRenderHook(func(demo string) {
		if demo == poisoned {
			panic("poisoned for test")
		}
	})
	defer setTestRenderHook(nil)

	ctx := NewContext()
	ctx.SimFrames = 1
	ctx.W, ctx.H = 256, 192
	ctx.KeepGoing = true
	ctx.Workers = 3
	gotRes, err := RunExperiments(context.Background(), ctx, ids)
	var errs ExperimentErrors
	if !errors.As(err, &errs) {
		t.Fatalf("error is %T (%v), want ExperimentErrors", err, err)
	}
	if len(errs) != 1 || errs[0].Demo != poisoned {
		t.Fatalf("errs = %v, want one failure for %s", errs, poisoned)
	}
	want := normalize(dropLines(renderTables(cleanRes), poisoned))
	if got := normalize(renderTables(gotRes)); got != want {
		t.Errorf("surviving rows differ from clean run:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// TestStrictAbortsOnPoisonedDemo pins the default behaviour: without
// KeepGoing the first failure aborts with an *ExperimentError.
func TestStrictAbortsOnPoisonedDemo(t *testing.T) {
	const poisoned = "UT2004/Primeval"
	setTestRenderHook(func(demo string) {
		if demo == poisoned {
			panic("poisoned for test")
		}
	})
	defer setTestRenderHook(nil)

	ctx := NewContext()
	ctx.APIFrames = 4
	res, err := RunExperiments(context.Background(), ctx, []string{"table3"})
	if err == nil {
		t.Fatal("strict run returned no error")
	}
	var ee *ExperimentError
	if !errors.As(err, &ee) || ee.ID != "table3" {
		t.Fatalf("error = %v, want *ExperimentError for table3", err)
	}
	if res != nil {
		t.Errorf("strict failure returned partial results")
	}
}

// TestExperimentDeadline checks the per-run timeout: a render hook
// stalls the sweep far past the context's deadline. The experiment
// fails with the deadline error, and the stalled render is waited for
// rather than abandoned, so no goroutine outlives RunExperiments.
func TestExperimentDeadline(t *testing.T) {
	setTestRenderHook(func(string) { time.Sleep(200 * time.Millisecond) })
	defer setTestRenderHook(nil)

	for _, workers := range []int{1, 2} {
		baseline := runtime.NumGoroutine()
		ctx := NewContext()
		ctx.APIFrames = 4
		ctx.Workers = workers
		ctx.KeepGoing = true
		run, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		res, err := RunExperiments(run, ctx, []string{"table3"})
		cancel()
		if n := settledGoroutines(baseline); n > baseline {
			t.Errorf("workers=%d: %d goroutines after RunExperiments, baseline %d", workers, n, baseline)
		}
		var errs ExperimentErrors
		if !errors.As(err, &errs) || len(errs) != 1 {
			t.Fatalf("workers=%d: err = %v, want one deadline failure", workers, err)
		}
		if !strings.Contains(errs[0].Error(), "deadline") {
			t.Errorf("workers=%d: error %q does not mention the deadline", workers, errs[0])
		}
		if len(res) != 1 || res[0] != nil {
			t.Errorf("workers=%d: results = %v, want one nil slot", workers, res)
		}
	}
}

// settledGoroutines returns the goroutine count once it drops to the
// baseline, or whatever it is after 20ms: long enough for goroutines
// that already finished their work to exit, far shorter than the 200ms
// stall an abandoned render would still be in.
func settledGoroutines(baseline int) int {
	n := runtime.NumGoroutine()
	for end := time.Now().Add(20 * time.Millisecond); n > baseline && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}
