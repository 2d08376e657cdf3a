package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/templates"
	"repro/internal/workload"
)

// executeParams are execute-verified's knobs (workloads.json).
type executeParams struct {
	EdgeDevice string `json:"edge_device"`
	EdgeDims   []int  `json:"edge_dims"`
	CNNDevice  string `json:"cnn_device"`
	CNNH       int    `json:"cnn_h"`
	CNNW       int    `json:"cnn_w"`
	// Sparse templates: PageRank and BFS levels on a power-law CSR.
	SparseDevice string  `json:"sparse_device"`
	SparseN      int     `json:"sparse_n"`
	AvgNNZ       int     `json:"avg_nnz"`
	Skew         float64 `json:"skew"`
	Iterations   int     `json:"iterations"`
	// Tolerance is the largest absolute output difference from the CPU
	// reference that still counts as correct.
	Tolerance float64 `json:"tolerance"`
}

// execCase is one template compiled under one service configuration,
// with its inputs and reference outputs.
type execCase struct {
	desc     string
	pipeline bool
	svc      *core.Service
	c        *core.Compiled
	in       exec.Inputs
	want     exec.Outputs
}

// executeVerified is one closed-loop client running materialized
// executions of plans compiled during set-up, half on a sequential and
// half on a WithPipeline service, checking every output.
type executeVerified struct {
	p       executeParams
	limitMS float64
	// compiled, when set, sees every case right after its compile (the
	// self-test corrupts a plan there).
	compiled func(*execCase)

	cases []*execCase
}

func newExecuteVerified(d workloadDoc) (*executeVerified, error) {
	w := &executeVerified{limitMS: d.LatencyLimitMS}
	if err := json.Unmarshal(d.Params, &w.p); err != nil {
		return nil, fmt.Errorf("execute-verified params: %w", err)
	}
	if w.p.Tolerance <= 0 || w.p.SparseN <= 0 {
		return nil, fmt.Errorf("execute-verified: tolerance and sparse_n are required")
	}
	return w, nil
}

// execTemplate is one generated graph with its inputs and target device.
type execTemplate struct {
	desc   string
	device string
	g      *graph.Graph
	in     exec.Inputs
}

func (w *executeVerified) build(seed int64) ([]execTemplate, error) {
	var out []execTemplate
	for _, dim := range w.p.EdgeDims {
		g, b, err := edgeGraph(dim, dim)
		if err != nil {
			return nil, err
		}
		out = append(out, execTemplate{fmt.Sprintf("edge %dx%d", dim, dim), w.p.EdgeDevice, g,
			workload.EdgeInputs(b, seed)})
	}
	g, cb, err := templates.CNN(templates.SmallCNN(w.p.CNNH, w.p.CNNW))
	if err != nil {
		return nil, err
	}
	out = append(out, execTemplate{fmt.Sprintf("small cnn %dx%d", w.p.CNNH, w.p.CNNW), w.p.CNNDevice, g,
		workload.CNNInputs(cb, seed)})
	s := workload.PowerLawCSR(seed, w.p.SparseN, w.p.AvgNNZ, w.p.Skew)
	cfg := templates.SparseConfig{Structure: s, Iterations: w.p.Iterations}
	g, sb, err := templates.PageRank(cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, execTemplate{fmt.Sprintf("pagerank n=%d", w.p.SparseN), w.p.SparseDevice, g,
		workload.PageRankInputs(sb, s)})
	g, sb, err = templates.BFSLevels(cfg)
	if err != nil {
		return nil, err
	}
	src := rand.New(rand.NewSource(seed)).Intn(w.p.SparseN)
	out = append(out, execTemplate{fmt.Sprintf("bfs n=%d", w.p.SparseN), w.p.SparseDevice, g,
		workload.BFSInputs(sb, s, src)})
	return out, nil
}

// setup compiles every template under both configurations and computes
// its reference outputs once, on the template graph as built: a wrong
// split changes the compiled graph but not the reference, so the check
// can catch it. Output buffer IDs survive compilation.
func (w *executeVerified) setup(seed int64) error {
	w.cases = w.cases[:0]
	ts, err := w.build(seed)
	if err != nil {
		return err
	}
	ctx := context.Background()
	for _, t := range ts {
		spec, err := deviceSpec(t.device)
		if err != nil {
			return err
		}
		want, err := exec.RunReference(t.g, t.in)
		if err != nil {
			return fmt.Errorf("%s reference: %w", t.desc, err)
		}
		for _, pipe := range []bool{false, true} {
			opts := []core.Option{core.WithDevice(spec)}
			if pipe {
				opts = append(opts, core.WithPipeline(0))
			}
			svc := core.NewService(opts...)
			c, _, err := svc.Compile(ctx, t.g)
			if err != nil {
				return fmt.Errorf("%s: %w", t.desc, err)
			}
			cs := &execCase{desc: t.desc, pipeline: pipe, svc: svc, c: c, in: t.in, want: want}
			if w.compiled != nil {
				w.compiled(cs)
			}
			w.cases = append(w.cases, cs)
		}
	}
	return nil
}

func (w *executeVerified) close()           {}
func (w *executeVerified) finish() []string { return nil }

// verify checks every reference output against the execution's.
func (w *executeVerified) verify(cs *execCase, got exec.Outputs) error {
	for id, want := range cs.want {
		out, ok := got[id]
		if !ok {
			return fmt.Errorf("output %d missing", id)
		}
		if !out.AlmostEqual(want, w.p.Tolerance) {
			return fmt.Errorf("output %d differs from the CPU reference by %g", id, out.MaxAbsDiff(want))
		}
	}
	return nil
}

func (w *executeVerified) measure(d time.Duration, rng *rand.Rand, tr *tracer) (*phase, error) {
	p := &phase{layer: map[string]float64{}}
	ctx := context.Background()
	modeled := map[int]float64{}
	var seqMS, pipeMS, launches, h2dCalls, h2dMB []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	heap := startHeapSampler()
	start := time.Now()
	for cycle := 0; wholeCycle(cycle, start, d); cycle++ {
		for _, i := range rng.Perm(len(w.cases)) {
			cs := w.cases[i]
			op := tr.newOp("execute.op")
			var rep *exec.Report
			var err error
			lat := msOf(timed(op, "exec", "Service.Execute", func() { rep, err = cs.svc.Execute(ctx, cs.c, cs.in) }))
			p.attempted++
			p.sent++
			if err == nil {
				check := op.child("bench", "check outputs")
				err = w.verify(cs, rep.Outputs)
				check.end()
			}
			op.end()
			if err != nil {
				p.fail("%s pipeline=%t: %v", cs.desc, cs.pipeline, err)
				continue
			}
			p.observe(fmt.Sprintf("%s pipeline=%t", cs.desc, cs.pipeline), lat, w.limitMS)
			modeled[i] = floatsMB(cs.c.TransferFloats())
			if cs.pipeline {
				pipeMS = append(pipeMS, lat)
			} else {
				seqMS = append(seqMS, lat)
			}
			launches = append(launches, float64(rep.Stats.KernelLaunches))
			h2dCalls = append(h2dCalls, float64(rep.Stats.H2DCalls))
			h2dMB = append(h2dMB, floatsMB(rep.Stats.H2DFloats))
		}
	}
	elapsed := time.Since(start).Seconds()
	p.heapPeakMB, p.heapRetainedMB = heap.stop()
	runtime.ReadMemStats(&ms1)
	p.tput = float64(len(p.latMS)) / elapsed
	var mb []float64
	for _, v := range modeled {
		mb = append(mb, v)
	}
	p.modeledMB = mean(mb)
	m := p.layer
	m["exec.sequential_ms"] = median(seqMS)
	m["exec.pipelined_ms"] = median(pipeMS)
	m["exec.alloc_mb_per_op"] = share(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6, float64(p.attempted))
	m["gpu.kernel_launches"] = mean(launches)
	m["gpu.h2d_calls"] = mean(h2dCalls)
	m["gpu.modeled_h2d_mb"] = mean(h2dMB)
	return p, nil
}

// probe times the CPU reference evaluator (the ops kernels and their
// load-balancing schedules, with no executor or device simulation) on
// each sequentially compiled graph, the same split graph the executor
// runs, so the gap to exec.sequential_ms is executor and simulation
// overhead.
func (w *executeVerified) probe(tr *tracer, m map[string]float64) error {
	var ref []float64
	for _, cs := range w.cases {
		if cs.pipeline {
			continue
		}
		op := tr.newOp("probe.reference")
		var err error
		ref = append(ref, msOf(timed(op, "ops", "exec.RunReference", func() {
			_, err = exec.RunReference(cs.c.Graph, cs.in)
		})))
		op.end()
		if err != nil {
			return err
		}
	}
	m["ops.reference_ms"] = mean(ref)
	return nil
}
