package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// Usage is what one program process cost, read from that process's own
// rusage as returned by wait4 for its pid. getrusage(RUSAGE_CHILDREN) would
// not do: its ru_maxrss is the largest child seen so far in this process
// and never resets between runs.
type Usage struct {
	Wall   time.Duration
	CPU    time.Duration // user + system
	PeakMB float64       // max resident set size
}

// usageOf extracts the rusage of an exited command.
func usageOf(ps *os.ProcessState) (cpu time.Duration, peakMB float64) {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return ps.UserTime() + ps.SystemTime(), 0
	}
	// Linux reports ru_maxrss in KiB.
	return ps.UserTime() + ps.SystemTime(), float64(ru.Maxrss) / 1024
}

// ownedCommand builds a command that the kernel kills if this process
// dies first, so no program outlives the benchmark.
func ownedCommand(dir, name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// runProgram runs one program to completion and returns its stdout and its
// own resource usage. A non-zero exit is an error carrying stderr's tail.
func runProgram(dir string, name string, args ...string) ([]byte, Usage, error) {
	cmd := ownedCommand(dir, name, args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	start := time.Now()
	err := cmd.Run()
	u := Usage{Wall: time.Since(start)}
	if cmd.ProcessState != nil {
		u.CPU, u.PeakMB = usageOf(cmd.ProcessState)
	}
	if err != nil {
		return out.Bytes(), u, fmt.Errorf("%s %v: %w: %s", name, args, err, tail(errb.Bytes(), 400))
	}
	return out.Bytes(), u, nil
}

func tail(b []byte, n int) []byte {
	if len(b) > n {
		return b[len(b)-n:]
	}
	return b
}
