// Command perfbench is the repository's benchmark: it times the programs a
// user runs (cmd/experiments and cmd/sweepd, built from this checkout) on
// three workloads, checks every output, and in a separate traced run times
// each simulator layer through its public Go API.
//
// Run it from the repository root through perfbench/run.sh, which builds
// the programs first:
//
//	bash perfbench/run.sh --workload regen-live --seed 1 --seconds 10 --trace 0
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics. Every line before it is the human-readable report: the run
// context, each metric with its unit and sample count, and any failure.
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	goldenScale = 0.05   // the scale of the blessed golden tables
	scaleArg    = "0.05" // goldenScale as the programs' -scale flag
	goldenPath  = "internal/sweep/testdata/golden_scale005_full.txt"
)

var workloadNames = []string{"regen-live", "regen-warm", "sweepd-errors"}

// endToEndNames are the metrics every timed run emits.
var endToEndNames = []string{"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}

// metric is one reported number with its unit and sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// runContext is recorded with every result, so a run on a noisy host can
// be told apart from a regression.
type runContext struct {
	Workload   string  `json:"workload"`
	Trace      bool    `json:"trace"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Scale      float64 `json:"scale"`
	Load1      string  `json:"load1_at_start"`
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "how long a run measures")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the timed one")
	binDir := flag.String("bin", ".bench_build/bin", "directory holding the built experiments and sweepd")
	workDir := flag.String("work", ".bench_build/work", "working directory for trace directories and span files")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traceFlag, *binDir, *workDir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
}

// run sets up and performs one benchmark run. Errors it returns mean the
// benchmark could not run at all; no result line is printed for them.
func run(workload string, seed int64, seconds, traceFlag int, binDir, workDir string) error {
	known := false
	for _, w := range workloadNames {
		known = known || w == workload
	}
	if !known {
		return fmt.Errorf("unknown -workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	}
	if seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	golden, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return fmt.Errorf("golden tables: %w (run from the repository root)", err)
	}
	b := &bench{
		root: root, bin: filepath.Join(root, binDir), work: filepath.Join(root, workDir),
		seed: seed, seconds: time.Duration(seconds) * time.Second,
		clients: runtime.NumCPU(), golden: golden,
	}
	for _, p := range []string{"experiments", "sweepd"} {
		if _, err := os.Stat(filepath.Join(b.bin, p)); err != nil {
			return fmt.Errorf("program not built: %w", err)
		}
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return err
	}
	ctx := runContext{
		Workload: workload, Trace: traceFlag == 1, Seed: seed, Seconds: seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(root), Scale: goldenScale, Load1: load1(),
	}
	cj, _ := json.Marshal(ctx)
	fmt.Printf("context %s\n", cj)

	var (
		ms        []metric
		want      = endToEndNames
		failures  []string
		attempted int
	)
	if traceFlag == 1 {
		var spans []Span
		ms, failures, spans = b.runTraced(workload)
		want, attempted = perLayerNames, 1
		if err := writeSpans(b, workload, spans); err != nil {
			failures = append(failures, err.Error())
		}
		printSelfTimes(spans)
	} else {
		var r *timedResult
		switch workload {
		case "regen-live":
			r = b.regenLive()
		case "regen-warm":
			r = b.regenWarm()
		default:
			r = b.sweepdErrors()
		}
		ms = []metric{
			{"wall_s", median(r.wall), "s", len(r.wall)},
			{"cpu_s", median(r.cpu), "s", len(r.cpu)},
			{"peak_rss_mb", median(r.rss), "MB", len(r.rss)},
			{"setup_s", r.setup, "s", r.setupN},
		}
		attempted, failures = r.attempted, r.failures
		fmt.Printf("metric %-34s %14.6g %-6s n=%d\n", "fail_ratio", float64(len(failures))/float64(max(attempted, 1)), "1", attempted)
		fmt.Printf("sample wall_s %s\n", fmtSamples(r.wall))
		fmt.Printf("sample cpu_s %s\n", fmtSamples(r.cpu))
		fmt.Printf("sample peak_rss_mb %s\n", fmtSamples(r.rss))
		for _, m := range r.notes {
			fmt.Printf("note   %-34s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
		}
	}
	return report(ms, want, attempted, failures)
}

// report prints every metric, then the result line. A run that broke the
// correctness gate, or did not measure exactly the metrics in want, still
// prints its result, marked incorrect, and exits 1.
func report(ms []metric, want []string, attempted int, failures []string) error {
	if len(failures) == 0 && !sameNames(ms, want) {
		failures = append(failures, fmt.Sprintf("measured %d metrics, not the %d expected: %v", len(ms), len(want), want))
	}
	out := map[string]map[string]any{}
	for _, m := range ms {
		fmt.Printf("metric %-34s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
		if !validMetricName(m.name) {
			failures = append(failures, fmt.Sprintf("invalid metric name %q", m.name))
			continue
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			failures = append(failures, fmt.Sprintf("metric %s has no value", m.name))
			continue
		}
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	for i, f := range failures {
		if i == 20 {
			fmt.Printf("FAIL   ... and %d more\n", len(failures)-i)
			break
		}
		fmt.Printf("FAIL   %s\n", f)
	}
	// One operation can break several checks; failed counts operations.
	attempted = max(attempted, 1)
	line, err := json.Marshal(map[string]any{
		"correct": len(failures) == 0, "attempted": attempted, "failed": min(len(failures), attempted), "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(failures) > 0 {
		os.Exit(1)
	}
	return nil
}

func fmtSamples(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

func sameNames(ms []metric, want []string) bool {
	if len(ms) != len(want) {
		return false
	}
	for i, m := range ms {
		if m.name != want[i] {
			return false
		}
	}
	return true
}

// writeSpans writes the traced run's spans, one JSON object per line.
func writeSpans(b *bench, workload string, spans []Span) error {
	path := filepath.Join(b.work, fmt.Sprintf("spans-%s-%d.jsonl", workload, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans  %d written to %s\n", len(spans), path)
	return nil
}

// printSelfTimes prints each span name's total and self time.
func printSelfTimes(spans []Span) {
	self := selfTimes(spans)
	total := map[string]time.Duration{}
	selfBy := map[string]time.Duration{}
	count := map[string]int{}
	for _, s := range spans {
		total[s.Name] += s.Dur()
		selfBy[s.Name] += self[s.ID]
		count[s.Name]++
	}
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("span   %-34s total %10.4fs  self %10.4fs  n=%d\n", n, total[n].Seconds(), selfBy[n].Seconds(), count[n])
	}
}

// commit names the code under test: the git commit when the checkout is a
// repository, otherwise a digest of the Go sources and module files.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := fnv.New64a()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, p)
			fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("tree-fnv64a:%016x", h.Sum64())
}

// load1 is the 1-minute load average at start, as /proc/loadavg gives it.
func load1() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	if f := strings.Fields(string(b)); len(f) > 0 {
		return f[0]
	}
	return "unknown"
}
