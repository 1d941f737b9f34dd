package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestInterruptResume is the end-to-end graceful-shutdown check: a run killed
// by SIGINT mid-sweep must exit 130 with its completed tasks checkpointed,
// and a -resume rerun must finish and print tables byte-identical to a run
// that was never interrupted.
func TestInterruptResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs simulations")
	}
	if runtime.GOOS == "windows" {
		t.Skip("relies on SIGINT delivery")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	// Flags must precede the experiment names (flag parsing stops at the
	// first positional argument).
	args := func(extra ...string) []string {
		a := []string{"-scale", "0.05", "-only", "kmeans", "-workers", "2", "-quiet"}
		a = append(a, extra...)
		return append(a, "table2", "fig9")
	}

	// Reference: the same sweep, never interrupted.
	want, err := exec.Command(bin, args()...).Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	// Interrupted run: SIGINT as soon as the first result hits the
	// checkpoint, while the rest of the grid is still in flight.
	cp := filepath.Join(dir, "cp.jsonl")
	cmd := exec.Command(bin, args("-checkpoint", cp)...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	interrupted := false
	deadline := time.After(2 * time.Minute)
poll:
	for {
		select {
		case err := <-done:
			// Finished before we could interrupt (a very fast machine);
			// the run itself must still have succeeded.
			if err != nil {
				t.Fatalf("run failed before interrupt: %v", err)
			}
			break poll
		case <-deadline:
			cmd.Process.Kill()
			t.Fatal("no checkpoint record appeared within 2m")
		default:
		}
		if data, _ := os.ReadFile(cp); bytes.Contains(data, []byte("\n")) {
			cmd.Process.Signal(os.Interrupt)
			interrupted = true
			break poll
		}
		time.Sleep(2 * time.Millisecond)
	}
	if interrupted {
		err := <-done
		var exit *exec.ExitError
		switch {
		case err == nil:
			// The signal raced with completion; nothing was cut short.
			t.Log("run completed before the signal landed")
		case errors.As(err, &exit) && exit.ExitCode() == 130:
			// Interrupted as intended: partial checkpoint, exit 130.
		default:
			t.Fatalf("interrupted run exited %v, want 130", err)
		}
	}
	if fi, err := os.Stat(cp); err != nil || fi.Size() == 0 {
		t.Fatalf("interrupt did not flush the checkpoint: %v", err)
	}

	// Resume: must complete the remaining tasks and render the exact
	// bytes the uninterrupted run produced.
	got, err := exec.Command(bin, args("-checkpoint", cp, "-resume")...).Output()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed output diverged:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", want, got)
	}
}

// TestResumeRefusesOtherIdentity: a checkpoint recorded at one scale and
// resumed at another must be refused, exit 1, naming both run identities,
// and print no table. Record keys name a cell but not the scale it ran at,
// so serving the records would print the other scale's numbers.
func TestResumeRefusesOtherIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs simulations")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	cp := filepath.Join(dir, "ck")
	if out, err := exec.Command(bin, "-scale", "0.05", "-only", "kmeans", "-quiet", "-checkpoint", cp, "fig9").CombinedOutput(); err != nil {
		t.Fatalf("recording run: %v\n%s", err, out)
	}
	before, err := os.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin, "-scale", "0.02", "-only", "kmeans", "-quiet", "-checkpoint", cp, "-resume", "fig9")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("resume at another scale exited %v, want 1\nstderr: %s", err, stderr.String())
	}
	for _, want := range []string{"scale=0.05|cores=4", "scale=0.02|cores=4", "delete the file or rerun without -resume"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr.String())
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("refused resume printed tables:\n%s", stdout.String())
	}
	if after, _ := os.ReadFile(cp); !bytes.Equal(after, before) {
		t.Error("refused resume modified the checkpoint")
	}
}
