package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
)

// serveParams are serve-steady's knobs (workloads.json).
type serveParams struct {
	Devices    []string `json:"devices"`
	Streams    int      `json:"streams"`
	QueueDepth int      `json:"queue_depth"`
	// A measured phase alternates Rounds open-loop and saturation
	// segments. OfferedRate is the open loop's mean arrival rate (jobs/s)
	// and OpenShare the share of each round it runs. The closed-loop
	// saturation segment sends the whole blocks of the mix that fill the
	// rest of the round at SaturationJobsPerS.
	OfferedRate        float64 `json:"offered_rate_per_s"`
	OpenShare          float64 `json:"open_loop_share"`
	Rounds             int     `json:"rounds"`
	SaturationJobsPerS float64 `json:"saturation_jobs_per_s"`
	// MaxGeneratorLateMS invalidates a run whose arrival generator fell
	// this far behind schedule (p90).
	MaxGeneratorLateMS float64 `json:"max_generator_late_ms"`
	// Mix names rows of experiments.PaperWorkloads() ("<name> <input>"),
	// all sent at equal weight.
	Mix []string `json:"mix"`
}

// mixEntry is one paper workload row of the serving mix.
type mixEntry struct {
	row   string // "<name> <input>", as in workloads.json
	class string // edge, small_cnn, or large_cnn
	build func() (*graph.Graph, error)
}

func (e mixEntry) String() string { return e.row }

// templateClass maps a paper workload name to the class the per-layer
// metrics are reported under.
var templateClass = map[string]string{
	"Edge detection": "edge",
	"Small CNN":      "small_cnn",
	"Large CNN":      "large_cnn",
}

// paperMix resolves the named rows of experiments.PaperWorkloads().
func paperMix(rows []string) ([]mixEntry, error) {
	byRow := map[string]experiments.TemplateSpec{}
	for _, s := range experiments.PaperWorkloads() {
		byRow[s.Name+" "+s.Input] = s
	}
	var mix []mixEntry
	for _, r := range rows {
		s, ok := byRow[r]
		if !ok || templateClass[s.Name] == "" {
			return nil, fmt.Errorf("serve-steady: %q is not a paper workload row", r)
		}
		mix = append(mix, mixEntry{row: r, class: templateClass[s.Name], build: s.Build})
	}
	return mix, nil
}

// serveSteady drives a serving pool built the way `served -residency
// -gang` builds one with an open loop of seeded Poisson arrivals,
// alternating with a closed loop that saturates it, capped at the pool's
// stream count.
type serveSteady struct {
	p       serveParams
	limitMS float64
	specs   []gpu.Spec
	mix     []mixEntry

	graphs []*graph.Graph
	pool   *serve.Pool
	// placed records where warm-up put each mix entry.
	placed []serve.Placement
	// refs holds the cold single-run stats per entry and placement.
	refs map[string][]gpu.Stats
}

func newServeSteady(d workloadDoc) (*serveSteady, error) {
	w := &serveSteady{limitMS: d.LatencyLimitMS}
	if err := json.Unmarshal(d.Params, &w.p); err != nil {
		return nil, fmt.Errorf("serve-steady params: %w", err)
	}
	for _, name := range w.p.Devices {
		s, err := deviceSpec(name)
		if err != nil {
			return nil, err
		}
		w.specs = append(w.specs, s)
	}
	if w.p.OfferedRate <= 0 || w.p.Rounds <= 0 || w.p.SaturationJobsPerS <= 0 || len(w.p.Mix) == 0 || w.limitMS <= 0 {
		return nil, fmt.Errorf("serve-steady: offered rate, rounds, saturation rate, mix and latency limit are required")
	}
	var err error
	w.mix, err = paperMix(w.p.Mix)
	return w, err
}

func (w *serveSteady) newPool() *serve.Pool {
	return serve.NewPool(
		serve.WithDevices(w.specs...),
		serve.WithStreams(w.p.Streams),
		serve.WithQueueDepth(w.p.QueueDepth),
		serve.WithObserver(obs.New()),
		serve.WithServiceOptions(core.WithPlanner(core.HeuristicPlanner), core.WithCache(0)),
		serve.WithResidency(),
		serve.WithGangPlacement(),
	)
}

// warmBlocks is how many blocks of the mix warm-up runs concurrently.
const warmBlocks = 2

// setup builds the graphs, warms a fresh pool up with one job per
// template (compiling every plan into the per-device caches and
// installing the residency pins) and then warmBlocks blocks of the mix
// under concurrency, and runs the cold references the stats check
// compares with: each template on its warm-up placement and, for a
// single-device template, on every device the pool could move it to.
func (w *serveSteady) setup(seed int64) error {
	w.close()
	w.refs = map[string][]gpu.Stats{}
	w.graphs = w.graphs[:0]
	for _, e := range w.mix {
		g, err := e.build()
		if err != nil {
			return fmt.Errorf("%s: %w", e, err)
		}
		w.graphs = append(w.graphs, g)
	}
	w.pool = w.newPool()
	w.placed = w.placed[:0]
	ctx := context.Background()
	for i, g := range w.graphs {
		j, err := w.pool.Submit(ctx, serve.Request{Graph: g})
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", w.mix[i], err)
		}
		if _, err := j.Wait(ctx); err != nil {
			return fmt.Errorf("warm-up %s: %w", w.mix[i], err)
		}
		w.placed = append(w.placed, j.Placement())
	}
	// Then a few blocks of the mix under concurrency, so the measured
	// phases start from the placements and pins contention produces.
	warm, _ := w.closedLoop(nil, sequence(rand.New(rand.NewSource(seed)), len(w.mix), warmBlocks*len(w.mix)))
	for _, o := range warm {
		if o.err != nil {
			return fmt.Errorf("warm-up %s: %w", w.mix[o.entry], o.err)
		}
	}
	for i, pl := range w.placed {
		pls := []serve.Placement{pl}
		if !pl.Gang() {
			pls = pls[:0]
			for _, s := range w.specs {
				pls = append(pls, serve.Placement{Devices: []string{s.Name}})
			}
		}
		for _, pl := range pls {
			if _, err := w.reference(i, pl); err != nil {
				return fmt.Errorf("%s on %s: cold reference: %w", w.mix[i], placementKey(pl), err)
			}
		}
	}
	return nil
}

func (w *serveSteady) close() {
	if w.pool != nil {
		w.pool.Close()
		w.pool = nil
	}
}

// sequence returns n mix-entry indices: blocks holding every entry once,
// each block in seeded order.
func sequence(rng *rand.Rand, entries, n int) []int {
	block := make([]int, entries)
	for i := range block {
		block[i] = i
	}
	out := make([]int, 0, n+entries)
	for len(out) < n {
		rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		out = append(out, block...)
	}
	return out[:n]
}

// jobOutcome is one served job as the client saw it.
type jobOutcome struct {
	entry     int
	latMS     float64 // due time to Wait returning
	lateMS    float64 // generator lateness (open loop)
	done      time.Time
	submitMS  float64
	err       error
	status    serve.Status
	rep       *exec.Report
	partition *exec.PartitionReport
}

// runJob submits one job and waits for it, under an op span starting at
// due.
func (w *serveSteady) runJob(tr *tracer, entry int, due time.Time) jobOutcome {
	o := jobOutcome{entry: entry, lateMS: msOf(time.Since(due))}
	op := tr.newOpAt("serve.job", due)
	ctx := context.Background()
	var j *serve.Job
	o.submitMS = msOf(timed(op, "serve", "serve.Submit", func() {
		j, o.err = w.pool.Submit(ctx, serve.Request{Graph: w.graphs[entry]})
	}))
	if o.err == nil {
		wait := op.child("serve", "serve.Wait")
		o.rep, o.err = j.Wait(ctx)
		wait.end()
		o.status = j.Status()
		o.partition = j.Partition()
	}
	op.end()
	o.done = time.Now()
	o.latMS = msOf(o.done.Sub(due))
	return o
}

func (w *serveSteady) measure(d time.Duration, rng *rand.Rand, tr *tracer) (*phase, error) {
	p := &phase{layer: map[string]float64{}}
	before := w.pool.Stats()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	heap := startHeapSampler()

	// Open-loop and saturation segments alternate, so both see the
	// machine across the whole phase.
	round := d / time.Duration(w.p.Rounds)
	openDur := time.Duration(float64(round) * w.p.OpenShare)
	// Every client gets at least two jobs, so the busy window below is
	// never empty.
	block := len(w.mix)
	clients := w.p.Streams * len(w.specs)
	satBlocks := int(w.p.SaturationJobsPerS*(round-openDur).Seconds()/float64(block) + 0.5)
	satJobs := max(satBlocks, (2*clients+block-1)/block) * block
	var outcomes, sat []jobOutcome
	var satDone int
	var satTime time.Duration
	for r := 0; r < w.p.Rounds; r++ {
		outcomes = append(outcomes, w.openLoop(tr, rng, openDur)...)
		// Throughput counts the jobs done while every client was busy, up
		// to the first client running out of work, so the drain of the
		// last few jobs does not count.
		start := time.Now()
		o, idle := w.closedLoop(tr, sequence(rng, block, satJobs))
		for _, j := range o {
			if j.err == nil && !j.done.After(idle) {
				satDone++
			}
		}
		sat = append(sat, o...)
		satTime += idle.Sub(start)
	}
	p.tput = share(float64(satDone), satTime.Seconds())
	// The checks below are the benchmark's own work, not the pool's.
	p.heapPeakMB, p.heapRetainedMB = heap.stop()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	after := w.pool.Stats()

	var late []float64
	var modeled float64
	for _, o := range outcomes {
		p.attempted++
		p.sent++
		late = append(late, o.lateMS)
		if o.err != nil {
			p.fail("%s: %v", w.mix[o.entry], o.err)
			continue
		}
		p.observe(w.mix[o.entry].String(), o.latMS, w.limitMS)
	}
	for _, o := range sat {
		p.attempted++
		if o.err != nil {
			p.fail("%s: %v", w.mix[o.entry], o.err)
		}
	}
	all := append(append([]jobOutcome(nil), outcomes...), sat...)
	jobs := 0
	for _, o := range all {
		if o.err != nil {
			continue
		}
		jobs++
		modeled += floatsMB(o.rep.Stats.TotalFloats())
		if err := w.check(o); err != nil {
			p.fail("%s on %s: %v", w.mix[o.entry], placementKey(o.status.Placement), err)
		}
	}
	p.modeledMB = share(modeled, float64(jobs))
	if lp := quantile(late, 0.9); lp > w.p.MaxGeneratorLateMS {
		return nil, fmt.Errorf("arrival generator ran %.1f ms late (p90), over the %.1f ms validity limit",
			lp, w.p.MaxGeneratorLateMS)
	}
	if tr != nil {
		w.layerMetrics(p, all, late, before, after, float64(ms1.TotalAlloc-ms0.TotalAlloc))
	}
	return p, nil
}

// openLoop sends seeded Poisson arrivals over d, with the count fixed at
// rate × d (given their count, Poisson arrival times are uniform order
// statistics), so every seed sends the same number of jobs, and returns
// once every job has finished. Each job runs in its own goroutine so a
// slow Submit never delays the next arrival.
func (w *serveSteady) openLoop(tr *tracer, rng *rand.Rand, d time.Duration) []jobOutcome {
	arrivals := make([]time.Duration, int(w.p.OfferedRate*d.Seconds()+0.5))
	for i := range arrivals {
		arrivals[i] = time.Duration(rng.Float64() * float64(d))
	}
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i] < arrivals[j] })
	entries := sequence(rng, len(w.mix), len(arrivals))
	outcomes := make([]jobOutcome, len(arrivals))
	var wg sync.WaitGroup
	start := time.Now()
	for i, at := range arrivals {
		due := start.Add(at)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			outcomes[i] = w.runJob(tr, entries[i], due)
		}(i, due)
	}
	wg.Wait()
	return outcomes
}

// closedLoop runs the entries through one client per pool stream and
// returns their outcomes and when the first client ran out of work.
func (w *serveSteady) closedLoop(tr *tracer, entries []int) ([]jobOutcome, time.Time) {
	out := make([]jobOutcome, len(entries))
	var next atomic.Int64
	var idleOnce sync.Once
	var idle time.Time
	var wg sync.WaitGroup
	for c := 0; c < w.p.Streams*len(w.specs); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(entries) {
					idleOnce.Do(func() { idle = time.Now() })
					return
				}
				out[i] = w.runJob(tr, entries[i], time.Now())
			}
		}()
	}
	wg.Wait()
	return out, idle
}

// check compares a job's charged stats with a cold core run of the same
// template on the same placement.
func (w *serveSteady) check(o jobOutcome) error {
	want, err := w.reference(o.entry, o.status.Placement)
	if err != nil {
		return fmt.Errorf("cold reference: %w", err)
	}
	var got []gpu.Stats
	if o.status.Placement.Gang() {
		if o.partition == nil {
			return fmt.Errorf("gang job without a partition report")
		}
		for _, r := range o.partition.Parts {
			got = append(got, r.Stats)
		}
	} else {
		got = []gpu.Stats{o.rep.Stats}
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("charged stats %+v, cold run %+v", got, want)
	}
	return nil
}

// placementKey names a placement's devices in order.
func placementKey(pl serve.Placement) string { return strings.Join(pl.Devices, "+") }

// jobKey identifies a mix entry on a placement.
func jobKey(entry int, pl serve.Placement) string {
	return fmt.Sprintf("%d@%s", entry, placementKey(pl))
}

// reference returns the cold stats of entry on pl, running them the first
// time a placement is seen (set-up covers every placement warm-up or a
// single-device move can produce).
func (w *serveSteady) reference(entry int, pl serve.Placement) ([]gpu.Stats, error) {
	key := jobKey(entry, pl)
	if want, ok := w.refs[key]; ok {
		return want, nil
	}
	want, err := w.coldStats(w.graphs[entry], pl)
	if err != nil {
		return nil, err
	}
	w.refs[key] = want
	return want, nil
}

// coldStats compiles g on a fresh service for the placement and replays
// it once in accounting mode: per-device charged stats.
func (w *serveSteady) coldStats(g *graph.Graph, pl serve.Placement) ([]gpu.Stats, error) {
	specs := make([]gpu.Spec, len(pl.Devices))
	for i, name := range pl.Devices {
		specs[i] = w.spec(name)
	}
	ctx := context.Background()
	svc := core.NewService(core.WithDevice(specs[0]), core.WithPlanner(core.HeuristicPlanner))
	if len(specs) > 1 {
		pc, _, err := svc.CompilePartitioned(ctx, g, specs)
		if err != nil {
			return nil, err
		}
		pr, err := pc.Run(ctx, core.RunOptions{Simulate: true})
		if err != nil {
			return nil, err
		}
		var out []gpu.Stats
		for _, r := range pr.Parts {
			out = append(out, r.Stats)
		}
		return out, nil
	}
	c, _, err := svc.Compile(ctx, g)
	if err != nil {
		return nil, err
	}
	rep, err := c.Run(ctx, core.RunOptions{Simulate: true})
	if err != nil {
		return nil, err
	}
	return []gpu.Stats{rep.Stats}, nil
}

// finish closes the pool and checks its memory ledger: with every worker
// gone, each device's committed bytes must equal its pinned bytes.
func (w *serveSteady) finish() []string {
	w.pool.Close()
	var bad []string
	for _, d := range w.pool.Stats().Devices {
		if d.CommittedBytes != d.PinnedBytes {
			bad = append(bad, fmt.Sprintf("device %s: committed %d B != pinned %d B after close",
				d.Name, d.CommittedBytes, d.PinnedBytes))
		}
	}
	return bad
}

func (w *serveSteady) layerMetrics(p *phase, all []jobOutcome, late []float64,
	before, after serve.Stats, allocBytes float64) {
	var submit, wait, execMS, batch, actual []float64
	var placedJobs, hits, coalesced, gangs float64
	for _, o := range all {
		submit = append(submit, o.submitMS)
		if o.err != nil {
			continue
		}
		st := o.status
		wait = append(wait, st.QueueWaitMS)
		execMS = append(execMS, st.ExecMS)
		batch = append(batch, float64(st.BatchSize))
		actual = append(actual, floatsMB(o.rep.Actual.H2DFloats))
		if st.Coalesced {
			coalesced++
		} else {
			placedJobs++
			if st.CacheHit {
				hits++
			}
		}
		if st.Placement.Gang() {
			gangs++
		}
	}
	jobs := float64(len(wait))
	pinHits := float64(after.Residency.Hits - before.Residency.Hits)
	pinMiss := float64(after.Residency.Misses - before.Residency.Misses)
	m := p.layer
	m["serve.submit_ms.p50"] = quantile(submit, 0.5)
	m["serve.submit_ms.p90"] = quantile(submit, 0.9)
	m["serve.queue_wait_ms.p90"] = quantile(wait, 0.9)
	m["serve.exec_ms.p50"] = quantile(execMS, 0.5)
	m["serve.cache_hit_share"] = share(hits, placedJobs)
	m["serve.coalesced_share"] = share(coalesced, jobs)
	m["serve.batch_size_mean"] = mean(batch)
	m["serve.pin_hit_share"] = share(pinHits, pinHits+pinMiss)
	m["serve.modeled_actual_h2d_mb_per_job"] = mean(actual)
	m["serve.gang_jobs"] = gangs
	m["serve.generator_late_ms.p90"] = quantile(late, 0.9)
	m["exec.alloc_mb_per_op"] = share(allocBytes/1e6, float64(len(all)))
}

// probe times the layers under the serving path directly: fingerprint
// and clone per template class, plain against resilient accounting
// replays of single-device placements, and the partitioned replay of
// the Large CNN gang.
func (w *serveSteady) probe(tr *tracer, m map[string]float64) error {
	ctx := context.Background()
	const reps = 3
	perClass := map[string]map[string][]float64{}
	add := func(metric, class string, v float64) {
		if perClass[metric] == nil {
			perClass[metric] = map[string][]float64{}
		}
		perClass[metric][class] = append(perClass[metric][class], v)
	}
	for i, e := range w.mix {
		g := w.graphs[i]
		var fp, cl []float64
		for r := 0; r < reps; r++ {
			op := tr.newOp("probe.graph")
			fp = append(fp, msOf(timed(op, "graph", "graph.Fingerprint", func() { g.Fingerprint() })))
			cl = append(cl, msOf(timed(op, "graph", "graph.Clone", func() { g.Clone() })))
			op.end()
		}
		add("graph.fingerprint_ms", e.class, median(fp))
		add("graph.clone_ms", e.class, median(cl))

		pl := w.placed[i]
		svc := core.NewService(core.WithDevice(w.spec(pl.Devices[0])), core.WithPlanner(core.HeuristicPlanner))
		if pl.Gang() {
			if e.class != "large_cnn" {
				continue
			}
			specs := make([]gpu.Spec, len(pl.Devices))
			for k, name := range pl.Devices {
				specs[k] = w.spec(name)
			}
			pc, _, err := svc.CompilePartitioned(ctx, g, specs)
			if err != nil {
				return err
			}
			var part []float64
			for r := 0; r < reps; r++ {
				op := tr.newOp("probe.exec")
				var err error
				part = append(part, msOf(timed(op, "exec", "PartitionedCompiled.Run", func() {
					_, err = pc.Run(ctx, core.RunOptions{Simulate: true})
				})))
				op.end()
				if err != nil {
					return err
				}
			}
			add("exec.partitioned_ms", "", median(part))
			continue
		}
		c, _, err := svc.Compile(ctx, g)
		if err != nil {
			return err
		}
		var plain, resilient []float64
		for r := 0; r < reps; r++ {
			for _, res := range []bool{false, true} {
				op := tr.newOp("probe.exec")
				var err error
				d := msOf(timed(op, "exec", "Compiled.Run", func() {
					_, err = c.Run(ctx, core.RunOptions{Simulate: true, Resilient: res})
				}))
				op.end()
				if err != nil {
					return err
				}
				if res {
					resilient = append(resilient, d)
				} else {
					plain = append(plain, d)
				}
			}
		}
		add("exec.accounting_plain_ms", e.class, median(plain))
		add("exec.accounting_resilient_ms", e.class, median(resilient))
		add("exec.resilient_overhead_x", e.class, share(median(resilient), median(plain)))
	}
	for metric, byClass := range perClass {
		for class, vs := range byClass {
			name := metric
			if class != "" {
				name += "." + class
			}
			m[name] = mean(vs)
		}
	}
	return nil
}

func (w *serveSteady) spec(name string) gpu.Spec {
	for _, s := range w.specs {
		if s.Name == name {
			return s
		}
	}
	return gpu.Spec{}
}
