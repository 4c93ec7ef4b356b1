package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"time"
)

// tracer keeps spans in memory and writes them as Chrome trace-event JSON
// (chrome://tracing, Perfetto) when the traced pass ends. Spans are recorded
// by the benchmark around its calls into each layer; the program itself is
// not instrumented. A nil *tracer records nothing.
type tracer struct {
	start time.Time
	mu    sync.Mutex
	spans []traceEvent
}

type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // µs since the trace began
	Dur  float64           `json:"dur"` // µs
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// span records one completed interval. id ties together the spans of one
// simulation key or served job; parent names the span that caused it.
func (t *tracer) span(cat, name, id, parent string, tid int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	ev := traceEvent{
		Name: name, Cat: cat, Ph: "X", PID: 1, TID: tid,
		TS:  float64(start.Sub(t.start)) / float64(time.Microsecond),
		Dur: float64(d) / float64(time.Microsecond),
	}
	if id != "" || parent != "" {
		ev.Args = map[string]string{}
		if id != "" {
			ev.Args["id"] = id
		}
		if parent != "" {
			ev.Args["parent"] = parent
		}
	}
	t.mu.Lock()
	t.spans = append(t.spans, ev)
	t.mu.Unlock()
}

// write saves the spans as a Chrome trace-event file, with the run's
// environment as metadata.
func (t *tracer) write(path string, e env) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		OtherData       env          `json:"otherData"`
	}{t.spans, "ms", e})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ---- CPU profile → per-layer shares ----

const modulePrefix = "github.com/reproductions/cppe/"

// cpuLayers are the layers whose share of CPU samples is reported, keyed by
// the package path under the module (serve/fsfault folds into serve).
var cpuLayers = []string{
	"engine", "sm", "cache", "tlb", "ptw", "pagetable", "uvm", "dram", "xbus",
	"evict", "policy", "prefetch", "snapshot", "sweep", "serve", "runtime",
}

// layerAlias folds a package into the layer the layer table groups it
// under: the harness with its sweep driver, core with the policies.
var layerAlias = map[string]string{"harness": "sweep", "core": "policy"}

// layerOf maps a profiled function name to its layer: the first element of
// its package path under the module's internal/ directory (after
// layerAlias), "runtime" for the Go runtime, and "other" for everything
// else (the workload generator, memdef, stats, trace, the stdlib, the
// facade, this benchmark). Every sample thus lands in one of cpuLayers or
// "other", and their shares sum to 1.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") {
		return "runtime"
	}
	if rest, ok := strings.CutPrefix(pkg, modulePrefix+"internal/"); ok {
		if i := strings.Index(rest, "/"); i >= 0 {
			rest = rest[:i]
		}
		if a, ok := layerAlias[rest]; ok {
			rest = a
		}
		if slices.Contains(cpuLayers, rest) {
			return rest
		}
	}
	return "other"
}

// cpuShares buckets the flat (leaf) samples of a CPU profile by layer, using
// the installed `go tool pprof -traces`. A sample whose leaf is
// runtime.asyncPreempt is charged to the function it interrupted.
func cpuShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTraces(out)
}

// parseTraces reads `pprof -traces` output: samples separated by dashed
// lines, each a value column on the leaf frame followed by its callers.
func parseTraces(out []byte) (map[string]float64, error) {
	byLayer := map[string]float64{}
	var total float64
	var val float64
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			leaf := frames[0]
			if leaf == "runtime.asyncPreempt" && len(frames) > 1 {
				leaf = frames[1]
			}
			byLayer[layerOf(leaf)] += val
			total += val
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	inSamples := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSamples = true
			continue
		}
		if !inSamples || strings.TrimSpace(line) == "" {
			continue
		}
		if line[0] != ' ' {
			continue
		}
		f := strings.Fields(line)
		if len(frames) == 0 {
			if len(f) < 2 {
				continue
			}
			d, err := time.ParseDuration(f[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad value %q", f[0])
			}
			val = d.Seconds()
			frames = append(frames, f[1])
			continue
		}
		frames = append(frames, f[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	shares := make(map[string]float64, len(byLayer))
	for l, v := range byLayer {
		if total > 0 {
			shares[l] = v / total
		}
	}
	return shares, nil
}

// profiler wraps one CPU profile plus the runtime/metrics readings taken
// over the same interval: GC CPU share and peak heap.
type profiler struct {
	path                 string
	f                    *os.File
	gc0, total0          float64
	stop                 chan struct{}
	sampled              sync.WaitGroup
	heapPeak             uint64
	gcCPUFrac, heapPeakM float64
}

func runtimeCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func heapObjectBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

const profileHz = 1000

func startProfile(path string) (*profiler, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	// 1 kHz instead of the default 100 Hz, so layers with a few percent of
	// the time still collect enough samples in a pass of a second or two.
	// StartCPUProfile then notes on stderr that the rate was already set.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p := &profiler{path: path, f: f, stop: make(chan struct{})}
	p.gc0, p.total0 = runtimeCPU()
	p.heapPeak = heapObjectBytes()
	p.sampled.Add(1)
	go func() {
		defer p.sampled.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				if h := heapObjectBytes(); h > p.heapPeak {
					p.heapPeak = h
				}
			}
		}
	}()
	return p, nil
}

func (p *profiler) finish() error {
	close(p.stop)
	p.sampled.Wait()
	pprof.StopCPUProfile()
	gc1, total1 := runtimeCPU()
	if total1 > p.total0 {
		p.gcCPUFrac = (gc1 - p.gc0) / (total1 - p.total0)
	}
	p.heapPeakM = float64(p.heapPeak) / (1 << 20)
	return p.f.Close()
}
