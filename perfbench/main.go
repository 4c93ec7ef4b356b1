// Command perfbench is the repository's benchmark. It runs one named
// workload (see workloads.go) for a fixed wall-clock budget, checks that
// every simulation result is correct, and prints its metrics by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With --trace 1 one untraced and one traced pass run back to back: the
// traced pass records spans and a CPU profile from outside the program
// (timing calls into its public functions and reading each module's Stats),
// and the metrics are the per-layer ones plus the tracing overhead.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload fig8-sweep --seed 0 --seconds 10 --trace 0
//
// The program measures the simulator's host cost only. The model is not
// validated against hardware, so no accuracy figure is reported, and the
// benchmark never changes a simulated statistic: correctness is checked by
// digesting every result (cppe.ResultJSON) and comparing the digests across
// repetitions, paths, and a committed reference for the default seed.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	cppe "github.com/reproductions/cppe"
	"github.com/reproductions/cppe/internal/harness"
)

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	out       string
	updateRef string
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the benchmark's final line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env records the conditions a report was measured under.
type env struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Seconds     int     `json:"seconds"`
	Trace       bool    `json:"trace"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Scale       float64 `json:"scale"`
	Warps       int     `json:"warps"`
	Parallelism int     `json:"parallelism"`
	Reps        int     `json:"reps"`
}

// report is what one workload run produces before printing.
type report struct {
	env     env
	out     outcome
	notes   []string // human-readable lines printed before the result
	digests map[string]string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "fig8-sweep", "workload name: "+workloadNames())
	fs.Int64Var(&opt.seed, "seed", 0, "workload seed")
	fs.IntVar(&opt.seconds, "seconds", 10, "wall-clock measuring budget in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.StringVar(&opt.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for temp state, reports, traces and profiles")
	fs.StringVar(&opt.updateRef, "update-reference", "", "write this run's digests (default seed only) into the given reference file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = trace == 1
	w, ok := workloadByName(opt.workload)
	if !ok || (trace != 0 && trace != 1) || opt.seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workloads: %s)\n", workloadNames())
		return 2
	}
	if opt.updateRef != "" && (opt.seed != 0 || opt.trace) {
		fmt.Fprintln(stderr, "perfbench: -update-reference needs --seed 0 --trace 0")
		return 2
	}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep, err := runWorkload(w, opt)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if opt.updateRef != "" {
		if err := updateReference(opt.updateRef, w, rep.digests); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	} else if rep.out.Correct {
		if err := checkReference(w, opt.seed, rep.digests); err != nil {
			rep.out.Correct = false
			rep.notes = append(rep.notes, "correctness: "+err.Error())
		}
	}
	printReport(stdout, rep)
	if err := writeReportFile(opt, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
	}
	line, err := json.Marshal(rep.out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.out.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func runWorkload(w workloadDef, opt options) (*report, error) {
	e := env{
		Workload: w.name, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Scale: w.scale, Warps: w.warps, Parallelism: runtime.NumCPU(),
	}
	var rep *report
	var err error
	switch {
	case w.serve && opt.trace:
		rep, err = traceServe(w, opt, e)
	case w.serve:
		rep, err = measureServe(w, opt, e)
	case opt.trace:
		rep, err = traceSweep(w, opt, e)
	default:
		rep, err = measureSweep(w, opt, e)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return rep, nil
}

func printReport(out io.Writer, rep *report) {
	e := rep.env
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%d trace=%v reps=%d nproc=%d gomaxprocs=%d go=%s scale=%g warps=%d parallelism=%d\n",
		e.Workload, e.Seed, e.Seconds, e.Trace, e.Reps, e.NProc, e.GOMAXPROCS, e.GoVersion, e.Scale, e.Warps, e.Parallelism)
	for _, n := range rep.notes {
		fmt.Fprintln(out, n)
	}
	names := make([]string, 0, len(rep.out.Metrics))
	for n := range rep.out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.out.Metrics[n]
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "correct=%v attempted=%d failed=%d\n", rep.out.Correct, rep.out.Attempted, rep.out.Failed)
}

// writeReportFile keeps the full report, with its environment, beside the
// traces and profiles.
func writeReportFile(opt options, rep *report) error {
	data, err := json.MarshalIndent(struct {
		Env    env      `json:"env"`
		Notes  []string `json:"notes"`
		Result outcome  `json:"result"`
	}{rep.env, rep.notes, rep.out}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("report-%s-seed%d-trace%d.json", opt.workload, opt.seed, boolInt(opt.trace))
	return os.WriteFile(filepath.Join(opt.out, name), append(data, '\n'), 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// request converts a harness key into the facade request of the same
// simulation.
func request(k harness.Key) cppe.Request {
	return cppe.Request{Benchmark: k.Bench, Setup: k.Setup, Oversubscription: k.OversubPct}
}

// digest fingerprints one canonical result rendering.
func digest(resultJSON []byte) string {
	sum := sha256.Sum256(resultJSON)
	return hex.EncodeToString(sum[:8])
}

// compareDigests reports the keys whose digest in got differs from want
// (missing keys included), at most a few of them.
func compareDigests(what string, want, got map[string]string) error {
	var bad []string
	for k, d := range want {
		if got[k] != d {
			bad = append(bad, fmt.Sprintf("%s (%s vs %s)", k, d, got[k]))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			bad = append(bad, k+" (unexpected)")
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	n := len(bad)
	if n > 4 {
		bad = append(bad[:4], fmt.Sprintf("and %d more", n-4))
	}
	return fmt.Errorf("%s: %d digests differ: %s", what, n, strings.Join(bad, ", "))
}

// ---- statistics ----

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// startPeakRSS returns freed heap memory to the OS and resets the kernel's
// peak-RSS mark, so the next peakRSSMB reading covers only what follows.
// Where the mark cannot be reset the reading covers the whole process.
func startPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB, or
// the runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) >= 1 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// budget decides how many repetitions fit the measuring budget: at least
// minReps, and another one only while the median repetition so far still
// fits before the deadline.
type budget struct {
	deadline time.Time
	minReps  int
	maxReps  int
	took     []float64
}

func newBudget(seconds, minReps, maxReps int) *budget {
	return &budget{deadline: time.Now().Add(time.Duration(seconds) * time.Second), minReps: minReps, maxReps: maxReps}
}

func (b *budget) more() bool {
	n := len(b.took)
	if n < b.minReps {
		return true
	}
	if n >= b.maxReps {
		return false
	}
	return time.Now().Add(time.Duration(median(b.took) * float64(time.Second))).Before(b.deadline)
}

func (b *budget) done(start time.Time) { b.took = append(b.took, time.Since(start).Seconds()) }
