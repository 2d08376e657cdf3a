package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/templates"
)

// compileParams are compile-cold's knobs (workloads.json).
type compileParams struct {
	Devices []string `json:"devices"`
	// CNNScale is the [min, max] operator-count scale of the generated
	// CNNs relative to Small CNN, covered by CNNStrata log-spaced sizes,
	// each compiled under both configurations in every cycle; the sizes
	// take CNNDims in turn.
	CNNScale  [2]float64 `json:"cnn_scale"`
	CNNStrata int        `json:"cnn_strata"`
	CNNDims   [][2]int   `json:"cnn_dims"`
	// EdgeDim is the [min, max] edge image side, covered by EdgeStrata
	// log-spaced sizes.
	EdgeDim    [2]int `json:"edge_dim"`
	EdgeStrata int    `json:"edge_strata"`
	// Jitter is the seeded relative perturbation of every size.
	Jitter float64 `json:"jitter"`
}

// compileSlot is one generated graph and the configuration it compiles
// under.
type compileSlot struct {
	desc     string
	class    string // edge or small_cnn
	g        *graph.Graph
	spec     gpu.Spec
	pipeline bool
}

func (s compileSlot) service() *core.Service {
	opts := []core.Option{core.WithDevice(s.spec)}
	if s.pipeline {
		opts = append(opts, core.WithPipeline(0))
	}
	return core.NewService(opts...)
}

// compileCold is one closed-loop client compiling seeded graphs, each on
// a fresh core.Service so no plan cache has seen it.
type compileCold struct {
	p       compileParams
	limitMS float64
	env     runEnv
	specs   []gpu.Spec

	seed    int64
	rng     *rand.Rand
	slots   []compileSlot
	digests map[int]string // slot -> plan digest
}

func newCompileCold(d workloadDoc, env runEnv) (*compileCold, error) {
	w := &compileCold{limitMS: d.LatencyLimitMS, env: env}
	if err := json.Unmarshal(d.Params, &w.p); err != nil {
		return nil, fmt.Errorf("compile-cold params: %w", err)
	}
	for _, name := range w.p.Devices {
		s, err := deviceSpec(name)
		if err != nil {
			return nil, err
		}
		w.specs = append(w.specs, s)
	}
	if w.p.CNNStrata <= 0 || w.p.EdgeStrata <= 0 || len(w.specs) == 0 || len(w.p.CNNDims) == 0 {
		return nil, fmt.Errorf("compile-cold: strata, devices and dims are required")
	}
	return w, nil
}

// jittered returns point k of n log-spaced points spanning [lo, hi],
// scaled by a seeded factor within 1±jitter.
func jittered(rng *rand.Rand, k, n int, lo, hi, jitter float64) float64 {
	f := 0.0
	if n > 1 {
		f = float64(k) / float64(n-1)
	}
	x := math.Exp(math.Log(lo) + f*(math.Log(hi)-math.Log(lo)))
	return x * (1 + jitter*(2*rng.Float64()-1))
}

// addPairs adds g's slots. A CNN compiles on every device under both
// configurations real callers use: the default and WithPipeline, which
// adds the prefetch pass. An edge graph compiles on every device too,
// with the two configurations split between the devices in seeded
// order: edge compiles take about a millisecond under either, and
// doubling them would move the median away from the CNN compiles.
func (w *compileCold) addPairs(desc, class string, g *graph.Graph, bothConfigs bool) {
	flip := w.rng.Intn(2) == 1
	for d, spec := range w.specs {
		for _, pipe := range []bool{false, true} {
			if !bothConfigs && pipe != (d%2 == 1) != flip {
				continue
			}
			w.slots = append(w.slots, compileSlot{desc: desc, class: class, g: g, spec: spec, pipeline: pipe})
		}
	}
}

func (w *compileCold) setup(seed int64) error {
	w.seed = seed
	w.rng = rand.New(rand.NewSource(seed))
	w.slots = w.slots[:0]
	w.digests = map[int]string{}
	// The seed perturbs sizes slightly and orders the compiles; the size
	// strata, devices and configurations are fixed, so every seed
	// compiles the same spread of work.
	nc, ne := w.p.CNNStrata, w.p.EdgeStrata
	for k := 0; k < nc; k++ {
		s := jittered(w.rng, k, nc, w.p.CNNScale[0], w.p.CNNScale[1], w.p.Jitter)
		dims := w.p.CNNDims[k%len(w.p.CNNDims)]
		g, _, err := templates.CNN(scaledCNN(dims[0], dims[1], math.Sqrt(s)))
		if err != nil {
			return err
		}
		w.addPairs(fmt.Sprintf("cnn x%.3f %dx%d (%d ops)", s, dims[0], dims[1], len(g.Nodes)), "small_cnn", g, true)
	}
	lo, hi := float64(w.p.EdgeDim[0]), float64(w.p.EdgeDim[1])
	for k := 0; k < ne; k++ {
		h := int(jittered(w.rng, k, ne, lo, hi, w.p.Jitter))
		wd := int(jittered(w.rng, k, ne, lo, hi, w.p.Jitter))
		g, _, err := edgeGraph(h, wd)
		if err != nil {
			return err
		}
		w.addPairs(fmt.Sprintf("edge %dx%d", h, wd), "edge", g, false)
	}
	// Warm-up compiles of the smallest graphs of each kind.
	for _, i := range []int{0, 1, 4 * w.p.CNNStrata} {
		if _, _, err := w.slots[i].service().Compile(context.Background(), w.slots[i].g); err != nil {
			return fmt.Errorf("warm-up %s: %w", w.slots[i].desc, err)
		}
	}
	return nil
}

func (w *compileCold) close()           {}
func (w *compileCold) finish() []string { return w.crossRunDigests() }

func (w *compileCold) measure(d time.Duration, rng *rand.Rand, tr *tracer) (*phase, error) {
	p := &phase{layer: map[string]float64{}}
	ctx := context.Background()
	modeled := map[int]float64{}
	hits := 0
	heap := startHeapSampler()
	start := time.Now()
	for cycle := 0; wholeCycle(cycle, start, d); cycle++ {
		for _, i := range rng.Perm(len(w.slots)) {
			s := w.slots[i]
			svc := s.service()
			op := tr.newOp("compile.op")
			var c *core.Compiled
			var hit bool
			var err error
			lat := msOf(timed(op, "core", "Service.Compile", func() { c, hit, err = svc.Compile(ctx, s.g) }))
			op.end()
			p.attempted++
			p.sent++
			if err != nil {
				p.fail("%s: %v", s.desc, err)
				continue
			}
			p.observe(fmt.Sprintf("%s pipeline=%t", s.class, s.pipeline), lat, w.limitMS)
			if hit || svc.CacheStats().Hits != 0 {
				hits++
				p.fail("%s: plan cache hit on a fresh service", s.desc)
				continue
			}
			dg := planDigest(c.Plan)
			if prev, ok := w.digests[i]; ok && prev != dg {
				p.fail("%s: plan digest changed between compiles (%.12s then %.12s)", s.desc, prev, dg)
				continue
			}
			w.digests[i] = dg
			modeled[i] = floatsMB(c.TransferFloats())
		}
	}
	p.tput = float64(len(p.latMS)) / time.Since(start).Seconds()
	p.heapPeakMB, p.heapRetainedMB = heap.stop()
	var mb []float64
	for _, v := range modeled {
		mb = append(mb, v)
	}
	p.modeledMB = mean(mb)
	p.layer["compile.cache_hits"] = float64(hits)
	return p, nil
}

// crossRunDigests compares this run's plan digests with an earlier run of
// the same seed and sources (recorded under the output directory), and
// records them when there is none.
func (w *compileCold) crossRunDigests() []string {
	if err := os.MkdirAll(w.env.out, 0o755); err != nil {
		return []string{err.Error()}
	}
	file := filepath.Join(w.env.out, fmt.Sprintf("compile-cold-seed%d-%.12s.digests.json", w.seed, w.env.source))
	byDesc := map[string]string{}
	for i, dg := range w.digests {
		s := w.slots[i]
		byDesc[fmt.Sprintf("%s on %s pipeline=%t", s.desc, s.spec.Name, s.pipeline)] = dg
	}
	var prev map[string]string
	if data, err := os.ReadFile(file); err == nil && json.Unmarshal(data, &prev) == nil {
		var bad []string
		for k, dg := range byDesc {
			if p, ok := prev[k]; ok && p != dg {
				bad = append(bad, fmt.Sprintf("%s: plan digest %.12s differs from an earlier run's %.12s", k, dg, p))
			}
		}
		for k, dg := range prev {
			if _, ok := byDesc[k]; !ok {
				byDesc[k] = dg
			}
		}
		if len(bad) > 0 {
			return bad
		}
	}
	data, _ := json.MarshalIndent(byDesc, "", "  ")
	if err := os.WriteFile(file, data, 0o644); err != nil {
		return []string{err.Error()}
	}
	return nil
}

// passFor maps an Engine.PassNames entry to the exported pass it names.
func passFor(name string) (compiler.Pass, error) {
	switch name {
	case "schedule-bind":
		return compiler.ScheduleBindPass{}, nil
	case "split":
		return compiler.SplitPass{}, nil
	case "validate":
		return compiler.ValidatePass{}, nil
	case "schedule:heuristic":
		return compiler.HeuristicPass{}, nil
	case "prefetch":
		return compiler.PrefetchPass{}, nil
	case "residency":
		return compiler.ResidencyPass{}, nil
	case "verify":
		return compiler.VerifyPass{}, nil
	}
	return nil, fmt.Errorf("pass %q has no mapping in the benchmark", name)
}

// passMetric is the per-layer metric stem a pass reports under.
func passMetric(name string) string {
	switch name {
	case "schedule-bind":
		return "schedule_bind"
	case "schedule:heuristic":
		return "schedule"
	}
	return name
}

// probe runs every slot's compile pass by pass, in the order
// Engine.PassNames reports, timing and counting allocations per pass, and
// checks that the resulting plan equals Service.Compile's.
func (w *compileCold) probe(tr *tracer, m map[string]float64) error {
	sums := map[string]float64{}
	fp, cl := map[string][]float64{}, map[string][]float64{}
	for i, s := range w.slots {
		eng := s.service().Engine()
		op := tr.newOp("probe.compile")
		fp[s.class] = append(fp[s.class], msOf(timed(op, "graph", "graph.Fingerprint", func() { s.g.Fingerprint() })))
		var g *graph.Graph
		cl[s.class] = append(cl[s.class], msOf(timed(op, "graph", "graph.Clone", func() { g = s.g.Clone() })))
		c := &compiler.Compilation{Graph: g, Device: s.spec, Capacity: eng.Capacity(), SplitTarget: eng.Capacity()}
		for _, name := range eng.PassNames() {
			pass, err := passFor(name)
			if err != nil {
				return err
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			d := timed(op, "compiler", "pass "+name, func() { err = pass.Run(c, nil) })
			runtime.ReadMemStats(&after)
			if err != nil {
				return fmt.Errorf("%s: pass %s: %w", s.desc, name, err)
			}
			stem := passMetric(name)
			sums["compile."+stem+"_ms"] += msOf(d)
			sums["compile."+stem+".allocs"] += float64(after.Mallocs - before.Mallocs)
		}
		op.end()
		sums["compile.ops_after_split"] += float64(len(c.Graph.Nodes))
		sums["compile.plan_steps"] += float64(len(c.Plan.Steps))
		want, ok := w.digests[i]
		if !ok {
			cc, _, err := s.service().Compile(context.Background(), s.g)
			if err != nil {
				return err
			}
			want = planDigest(cc.Plan)
		}
		if got := planDigest(c.Plan); got != want {
			return fmt.Errorf("%s: pass-by-pass plan %.12s differs from Service.Compile's %.12s", s.desc, got, want)
		}
	}
	for k, v := range sums {
		m[k] = v / float64(len(w.slots))
	}
	for class, v := range fp {
		m["graph.fingerprint_ms."+class] = mean(v)
		m["graph.clone_ms."+class] = mean(cl[class])
	}
	return nil
}
