// Command hostbench is the repository's benchmark of measured host cost.
// It runs one seeded workload against the framework's public Go API,
// checks every output, and prints one JSON result line:
//
//	hostbench --workload serve-steady --seed 1 --seconds 30 --trace 0
//
// Workloads (parameters and rationale in workloads.json):
//
//	serve-steady      open-loop seeded Poisson arrivals into a serving pool
//	compile-cold      one closed-loop client compiling graphs no cache holds
//	execute-verified  one closed-loop client running materialized plans,
//	                  every output checked against the CPU reference
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// it carries the per-layer metrics instead: the run measures the workload
// untraced for a quarter of the time, traced for half and untraced for
// the last quarter (the difference is the tracing overhead; the order
// cancels a steady drift), times single layers directly, and writes the
// spans as a Chrome trace under --out. Times are host wall-clock times; every
// quantity taken from the simulated device carries a modeled_ prefix.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
)

//go:embed workloads.json
var workloadsJSON []byte

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports, for every workload.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_ops_s", "ops/s"},
	{"slo_attainment", "share"},
	{"modeled_transfer_mb", "MB"},
	{"setup_s", "s"},
	{"heap_retained_mb", "MB"},
}

// perLayer are the metrics a --trace 1 run reports, for every workload. A
// layer the workload never calls reads 0.
var perLayer = []metricDef{
	{"serve.submit_ms.p50", "ms"},
	{"serve.submit_ms.p90", "ms"},
	{"serve.queue_wait_ms.p90", "ms"},
	{"serve.exec_ms.p50", "ms"},
	{"serve.cache_hit_share", "share"},
	{"serve.coalesced_share", "share"},
	{"serve.batch_size_mean", "jobs"},
	{"serve.pin_hit_share", "share"},
	{"serve.modeled_actual_h2d_mb_per_job", "MB"},
	{"serve.gang_jobs", "count"},
	{"serve.generator_late_ms.p90", "ms"},
	{"graph.fingerprint_ms.edge", "ms"},
	{"graph.fingerprint_ms.small_cnn", "ms"},
	{"graph.fingerprint_ms.large_cnn", "ms"},
	{"graph.clone_ms.edge", "ms"},
	{"graph.clone_ms.small_cnn", "ms"},
	{"graph.clone_ms.large_cnn", "ms"},
	{"compile.schedule_bind_ms", "ms"},
	{"compile.split_ms", "ms"},
	{"compile.validate_ms", "ms"},
	{"compile.schedule_ms", "ms"},
	{"compile.prefetch_ms", "ms"},
	{"compile.residency_ms", "ms"},
	{"compile.verify_ms", "ms"},
	{"compile.split.allocs", "count"},
	{"compile.schedule.allocs", "count"},
	{"compile.prefetch.allocs", "count"},
	{"compile.verify.allocs", "count"},
	{"compile.ops_after_split", "count"},
	{"compile.plan_steps", "count"},
	{"compile.cache_hits", "count"},
	{"exec.accounting_plain_ms.edge", "ms"},
	{"exec.accounting_plain_ms.small_cnn", "ms"},
	{"exec.accounting_resilient_ms.edge", "ms"},
	{"exec.accounting_resilient_ms.small_cnn", "ms"},
	{"exec.resilient_overhead_x.edge", "x"},
	{"exec.resilient_overhead_x.small_cnn", "x"},
	{"exec.partitioned_ms", "ms"},
	{"exec.sequential_ms", "ms"},
	{"exec.pipelined_ms", "ms"},
	{"exec.alloc_mb_per_op", "MB"},
	{"ops.reference_ms", "ms"},
	{"gpu.kernel_launches", "count"},
	{"gpu.h2d_calls", "count"},
	{"gpu.modeled_h2d_mb", "MB"},
	{"self_ms.bench", "ms"},
	{"self_ms.serve", "ms"},
	{"self_ms.core", "ms"},
	{"self_ms.graph", "ms"},
	{"self_ms.compiler", "ms"},
	{"self_ms.exec", "ms"},
	{"self_ms.ops", "ms"},
	{"trace.overhead_latency_p50_ms", "ms"},
	{"trace.overhead_throughput_ops_s", "ops/s"},
	{"trace.spans", "count"},
	{"process.heap_peak_mb", "MB"},
	{"process.rss_peak_mb", "MB"},
}

// A run sets its workload up at least setupReps times and until the
// set-ups took setupMin together, so a set-up of a fraction of a second
// still gets a steady median; setup_s is the median, and the last set-up
// is the one measured.
const (
	setupReps = 3
	setupMin  = 2 * time.Second
)

// workloadDoc is one workloads.json entry. Params holds the workload's
// own knobs; the rest documents the workload for readers.
type workloadDoc struct {
	Name           string          `json:"name"`
	LatencyLimitMS float64         `json:"latency_limit_ms"`
	Params         json.RawMessage `json:"params"`
}

func loadDocs() (map[string]workloadDoc, error) {
	var f struct {
		Workloads []workloadDoc `json:"workloads"`
	}
	if err := json.Unmarshal(workloadsJSON, &f); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	docs := map[string]workloadDoc{}
	for _, d := range f.Workloads {
		docs[d.Name] = d
	}
	return docs, nil
}

// runner is one benchmark workload.
type runner interface {
	// setup builds the inputs for seed and warms the system up,
	// replacing (and releasing) any earlier set-up.
	setup(seed int64) error
	// measure runs the end-to-end loop for about d, drawing its arrivals
	// and order from rng, then checks every output. tr is nil in
	// untraced runs.
	measure(d time.Duration, rng *rand.Rand, tr *tracer) (*phase, error)
	// probe calls single layers directly and records their per-layer
	// metrics (traced runs only).
	probe(tr *tracer, m map[string]float64) error
	// finish runs the checks that follow the last measurement and returns
	// what failed.
	finish() []string
	// close releases the set-up.
	close()
}

// wholeCycle reports whether a loop that measures whole cycles of its
// workload, started at start and now past cycle cycles, should run
// another: always a first one, then as long as that ends nearer to d
// than stopping would.
func wholeCycle(cycle int, start time.Time, d time.Duration) bool {
	if cycle == 0 {
		return true
	}
	el := time.Since(start)
	return el+el/time.Duration(cycle)/2 < d
}

// runEnv is what a workload may need from the run beyond its parameters.
type runEnv struct {
	out    string // output directory
	source string // source digest
}

// phase is one end-to-end measurement.
type phase struct {
	latMS     []float64 // per-op latency
	attempted int       // ops attempted
	failed    int       // ops that failed or failed a check
	sent      int       // ops the latency limit applies to
	within    int       // of those, ops finished within the limit
	tput      float64   // ops completed per second
	modeledMB float64   // modeled host<->device MB per op
	// heapPeakMB is the peak live heap while the ops ran and
	// heapRetainedMB the live heap once they had ended.
	heapPeakMB     float64
	heapRetainedMB float64
	failures       []string // first few failure descriptions
	layer          map[string]float64
	byCase         map[string][]float64 // latency per input class
}

// observe records one completed op's latency against the limit.
func (p *phase) observe(class string, latMS, limitMS float64) {
	p.latMS = append(p.latMS, latMS)
	if latMS <= limitMS {
		p.within++
	}
	if p.byCase == nil {
		p.byCase = map[string][]float64{}
	}
	p.byCase[class] = append(p.byCase[class], latMS)
}

func (p *phase) fail(format string, args ...interface{}) {
	p.failed++
	if len(p.failures) < 8 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

func newWorkload(name string, docs map[string]workloadDoc, env runEnv) (runner, error) {
	d, ok := docs[name]
	if !ok {
		var names []string
		for n := range docs {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	switch name {
	case "serve-steady":
		return newServeSteady(d)
	case "compile-cold":
		return newCompileCold(d, env)
	case "execute-verified":
		return newExecuteVerified(d)
	}
	return nil, fmt.Errorf("workload %q has no implementation", name)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the command prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord stamps a result with what produced it.
type runRecord struct {
	Workload     string    `json:"workload"`
	Seed         int64     `json:"seed"`
	Seconds      float64   `json:"seconds"`
	Trace        bool      `json:"trace"`
	GoMaxProcs   int       `json:"gomaxprocs"`
	NumCPU       int       `json:"nproc"`
	GoVersion    string    `json:"go_version"`
	Commit       string    `json:"commit"`
	SourceSHA256 string    `json:"source_sha256"`
	SetupRepsS   []float64 `json:"setup_reps_s"`
	Samples      int       `json:"samples"`
	// CaseP50MS is the median latency per input class of the measured
	// (traced, in a traced run) phase; the saved record also holds every
	// sample.
	CaseP50MS    map[string]float64   `json:"case_p50_ms,omitempty"`
	CaseSamples  map[string][]float64 `json:"-"`
	LatencyLimit float64              `json:"latency_limit_ms"`
	Failures     []string             `json:"failures,omitempty"`
	TraceFile    string               `json:"trace_file,omitempty"`
	TraceCheck   string               `json:"trace_check,omitempty"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	// docs overrides the embedded workloads.json (tests shrink sizes).
	docs map[string]workloadDoc
}

// run executes one benchmark run and returns the record and result.
func run(o options) (*runRecord, *result, error) {
	docs := o.docs
	if docs == nil {
		var err error
		if docs, err = loadDocs(); err != nil {
			return nil, nil, err
		}
	}
	rec := &runRecord{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: commit(), SourceSHA256: sourceDigest(),
		LatencyLimit: docs[o.workload].LatencyLimitMS,
	}
	w, err := newWorkload(o.workload, docs, runEnv{out: o.out, source: rec.SourceSHA256})
	if err != nil {
		return nil, nil, err
	}
	defer w.close()
	// Each set-up and each measured phase starts from a collected heap, so
	// none pays for collecting the garbage of the one before.
	var setupTotal time.Duration
	for i := 0; i < setupReps || setupTotal < setupMin; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(o.seed); err != nil {
			return rec, nil, fmt.Errorf("setup: %w", err)
		}
		el := time.Since(t0)
		rec.SetupRepsS = append(rec.SetupRepsS, el.Seconds())
		setupTotal += el
	}
	// Every measured phase replays the same seeded arrivals and order from
	// its start, so the traced and untraced phases of a traced run differ
	// by the tracing, not by their draws.
	measure := func(d time.Duration, tr *tracer) (*phase, error) {
		runtime.GC()
		return w.measure(d, rand.New(rand.NewSource(o.seed)), tr)
	}
	d := time.Duration(o.seconds * float64(time.Second))
	res := &result{Metrics: map[string]metricValue{}}
	var phases []*phase
	if !o.trace {
		p, err := measure(d, nil)
		if err != nil {
			return rec, nil, err
		}
		phases = append(phases, p)
		vals := map[string]float64{
			"latency_p50_ms":      quantile(p.latMS, 0.5),
			"latency_p90_ms":      quantile(p.latMS, 0.9),
			"throughput_ops_s":    p.tput,
			"slo_attainment":      share(float64(p.within), float64(p.sent)),
			"modeled_transfer_mb": p.modeledMB,
			"setup_s":             median(rec.SetupRepsS),
			"heap_retained_mb":    p.heapRetainedMB,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
		rec.Samples = len(p.latMS)
		rec.CaseP50MS, rec.CaseSamples = caseMedians(p), p.byCase
	} else {
		before, err := measure(d/4, nil)
		if err != nil {
			return rec, nil, err
		}
		tr := newTracer()
		traced, err := measure(d/2, tr)
		if err != nil {
			return rec, nil, err
		}
		after, err := measure(d/4, nil)
		if err != nil {
			return rec, nil, err
		}
		phases = append(phases, before, traced, after)
		untracedMS := append(append([]float64(nil), before.latMS...), after.latMS...)
		vals := traced.layer
		if err := w.probe(tr, vals); err != nil {
			return rec, nil, fmt.Errorf("layer probe: %w", err)
		}
		spans := tr.snapshot()
		self, ops := selfTimes(spans)
		for _, l := range layers {
			vals["self_ms."+l] = share(self[l], float64(ops))
		}
		vals["trace.overhead_latency_p50_ms"] = quantile(traced.latMS, 0.5) - quantile(untracedMS, 0.5)
		vals["trace.overhead_throughput_ops_s"] = traced.tput - (before.tput+after.tput)/2
		vals["trace.spans"] = float64(len(spans))
		vals["process.heap_peak_mb"] = max(before.heapPeakMB, after.heapPeakMB)
		vals["process.rss_peak_mb"] = rssPeakMB()
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
		rec.Samples = len(traced.latMS)
		rec.CaseP50MS, rec.CaseSamples = caseMedians(traced), traced.byCase
		file, check, err := writeTrace(o, spans)
		if err != nil {
			return rec, nil, err
		}
		rec.TraceFile, rec.TraceCheck = file, check
	}
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
		rec.Failures = append(rec.Failures, p.failures...)
	}
	checks := w.finish()
	rec.Failures = append(rec.Failures, checks...)
	res.Correct = res.Failed == 0 && len(checks) == 0
	return rec, res, nil
}

func caseMedians(p *phase) map[string]float64 {
	out := map[string]float64{}
	for c, v := range p.byCase {
		out[c] = median(v)
	}
	return out
}

// writeTrace exports the spans as a Chrome trace under o.out and checks
// the file with the repository's trace validator (planview -checktrace).
func writeTrace(o options, spans []span) (string, string, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return "", "", err
	}
	file := filepath.Join(o.out, fmt.Sprintf("%s-seed%d.trace.json", o.workload, o.seed))
	f, err := os.Create(file)
	if err != nil {
		return "", "", err
	}
	werr := writeChrome(f, spans, "hostbench "+o.workload+" (host wall clock)")
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", "", werr
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return "", "", err
	}
	c, err := obs.ValidateChrome(data)
	if err != nil {
		return "", "", fmt.Errorf("trace %s: %w", file, err)
	}
	return file, c.String(), nil
}

// heapSampler tracks the peak live heap: the bytes the last collection
// found reachable, sampled every few milliseconds while a workload's ops
// run. Unlike the resident set's high-water mark, it does not depend on
// where the collector's pacing let garbage pile up.
type heapSampler struct {
	peak atomic.Uint64
	done chan struct{}
	wg   sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-tick.C:
				h.read()
			}
		}
	}()
	return h
}

// read samples the live heap, raising the peak if it is higher.
func (h *heapSampler) read() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	var live uint64
	if v := sample[0].Value; v.Kind() == metrics.KindUint64 {
		live = v.Uint64()
	}
	if live > h.peak.Load() {
		h.peak.Store(live)
	}
	return live
}

// stop ends the sampling and returns the peak live heap and, after one
// more collection, the live heap the ops left behind, in megabytes (10^6
// bytes). The peak is at least the retained heap, whenever the collector
// last ran.
func (h *heapSampler) stop() (peak, retained float64) {
	close(h.done)
	h.wg.Wait()
	runtime.GC()
	live := h.read()
	return float64(h.peak.Load()) / 1e6, float64(live) / 1e6
}

// rssPeakMB is the process's peak resident set size.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// commit is the VCS revision the binary was built from, when the build
// had one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}

// sourceDigest hashes the Go sources and module files under the working
// directory, which identifies the code when no VCS revision is stamped.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "workloads.json" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: serve-steady, compile-cold, or execute-verified")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = report per-layer metrics from a traced run")
	flag.StringVar(&o.out, "out", ".bench_out", "directory for run records and traces")
	flag.Parse()
	o.trace = traceFlag == 1
	if o.workload == "" || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}

	rec, res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	if err := saveRecord(o, rec, res); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(os.Stderr, "hostbench: failed:", f)
	}
	recLine, _ := json.Marshal(map[string]*runRecord{"run_record": rec})
	fmt.Println(string(recLine))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// saveRecord writes the run record and result under o.out.
func saveRecord(o options, rec *runRecord, res *result) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	trace := 0
	if o.trace {
		trace = 1
	}
	data, err := json.MarshalIndent(struct {
		Record  *runRecord           `json:"run_record"`
		Samples map[string][]float64 `json:"case_latency_samples_ms"`
		Result  *result              `json:"result"`
	}{rec, rec.CaseSamples, res}, "", "  ")
	if err != nil {
		return err
	}
	file := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, trace))
	return os.WriteFile(file, append(data, '\n'), 0o644)
}
