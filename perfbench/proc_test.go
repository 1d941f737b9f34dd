package main

import (
	"os"
	"strconv"
	"testing"
	"time"
)

// TestMain doubles as the child process the rusage tests run: with
// PERFBENCH_CHILD_MB set it touches that many MiB and spins for
// PERFBENCH_CHILD_SPIN, then exits.
func TestMain(m *testing.M) {
	if v := os.Getenv("PERFBENCH_CHILD_MB"); v != "" {
		mb, _ := strconv.Atoi(v)
		buf := make([]byte, mb<<20)
		for i := 0; i < len(buf); i += 4096 {
			buf[i] = 1
		}
		spin, _ := time.ParseDuration(os.Getenv("PERFBENCH_CHILD_SPIN"))
		for start := time.Now(); time.Since(start) < spin; {
		}
		os.Exit(int(buf[0]) - 1)
	}
	os.Exit(m.Run())
}

func child(t *testing.T, mb int, spin string) Usage {
	t.Helper()
	t.Setenv("PERFBENCH_CHILD_MB", strconv.Itoa(mb))
	t.Setenv("PERFBENCH_CHILD_SPIN", spin)
	_, u, err := runProgram(".", os.Args[0], "-test.run", "^$")
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestUsageIsThatChildsOwn runs a large, busy child and then a small, idle
// one. The second child's figures must be its own: RUSAGE_CHILDREN would
// report the first child's peak RSS again and the sum of both CPU times.
func TestUsageIsThatChildsOwn(t *testing.T) {
	big := child(t, 256, "300ms")
	small := child(t, 1, "0s")
	if big.PeakMB < 256 {
		t.Errorf("big child peak RSS %.1f MB, want at least 256", big.PeakMB)
	}
	if big.CPU < 250*time.Millisecond {
		t.Errorf("big child CPU %v, want at least 250ms", big.CPU)
	}
	if small.PeakMB > big.PeakMB/4 {
		t.Errorf("small child peak RSS %.1f MB is not its own (big child had %.1f MB)", small.PeakMB, big.PeakMB)
	}
	if small.CPU > 200*time.Millisecond {
		t.Errorf("small child CPU %v includes an earlier child's", small.CPU)
	}
	if small.Wall <= 0 || small.Wall > 10*time.Second {
		t.Errorf("small child wall %v", small.Wall)
	}
}
