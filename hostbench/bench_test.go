package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/ops"
)

// tinyDocs returns the workload definitions shrunk to run in about a
// second each.
func tinyDocs(t *testing.T) map[string]workloadDoc {
	t.Helper()
	docs, err := loadDocs()
	if err != nil {
		t.Fatal(err)
	}
	set := func(name string, params interface{}) {
		d := docs[name]
		raw, err := json.Marshal(params)
		if err != nil {
			t.Fatal(err)
		}
		d.Params = raw
		docs[name] = d
	}
	set("serve-steady", serveParams{
		Devices: []string{"c870", "8800"}, Streams: 2, QueueDepth: 64,
		OfferedRate: 40, OpenShare: 0.5, Rounds: 2, SaturationJobsPerS: 8, MaxGeneratorLateMS: 1000,
		Mix: []string{"Edge detection 1000x1000", "Edge detection 10000x10000"},
	})
	set("compile-cold", compileParams{
		Devices: []string{"c870", "8800"}, CNNScale: [2]float64{0.05, 0.1}, CNNStrata: 2,
		CNNDims: [][2]int{{64, 48}}, EdgeDim: [2]int{256, 512}, EdgeStrata: 2, Jitter: 0.03,
	})
	set("execute-verified", executeParams{
		EdgeDevice: "mem=262144", EdgeDims: []int{64}, CNNDevice: "mem=262144", CNNH: 32, CNNW: 24,
		SparseDevice: "mem=262144", SparseN: 128, AvgNNZ: 8, Skew: 0.85, Iterations: 3, Tolerance: 1e-3,
	})
	return docs
}

// benchmarkJSON reads the metric definitions from the repository's
// BENCHMARK.json.
func benchmarkJSON(t *testing.T) (e2e, layer []metricDef) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	return e2e, layer
}

func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	e2e, layer := benchmarkJSON(t)
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %v, the benchmark reports %v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", layer, perLayer)
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at a tiny size,
// untraced and traced, and checks the result line and the trace file.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	e2e, layer := benchmarkJSON(t)
	docs := tinyDocs(t)
	for _, name := range []string{"serve-steady", "compile-cold", "execute-verified"} {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 7, seconds: 1, trace: trace, out: t.TempDir(), docs: docs}
			rec, res, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%t: correct=%t attempted=%d failed=%d: %v",
					name, trace, res.Correct, res.Attempted, res.Failed, rec.Failures)
			}
			want := e2e
			if trace {
				want = layer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", name, trace, m.name, got, m.unit)
				}
			}
			if !trace {
				for _, m := range e2e {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, m.name, res.Metrics[m.name].Value)
					}
				}
				continue
			}
			data, err := os.ReadFile(rec.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := obs.ValidateChrome(data); err != nil {
				t.Errorf("%s: trace rejected: %v", name, err)
			}
			if res.Metrics["trace.spans"].Value == 0 {
				t.Errorf("%s: traced run recorded no spans", name)
			}
		}
	}
}

// TestWrongReferenceFailsTheOp proves the execute-verified gate can fail:
// a corrupted reference output makes every op of that case fail.
func TestWrongReferenceFailsTheOp(t *testing.T) {
	docs := tinyDocs(t)
	w, err := newExecuteVerified(docs["execute-verified"])
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(3); err != nil {
		t.Fatal(err)
	}
	for _, want := range w.cases[0].want {
		want.Set(0, 0, want.At(0, 0)+1)
	}
	p, err := w.measure(100*time.Millisecond, rand.New(rand.NewSource(3)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.failed == 0 || p.failed == p.attempted {
		t.Fatalf("failed %d of %d ops, want exactly the corrupted case's", p.failed, p.attempted)
	}
}

// TestWrongColdStatsFailTheJob proves the serve-steady gate can fail: a
// wrong cold-run reference makes that template's jobs fail their check.
func TestWrongColdStatsFailTheJob(t *testing.T) {
	docs := tinyDocs(t)
	w, err := newServeSteady(docs["serve-steady"])
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.setup(3); err != nil {
		t.Fatal(err)
	}
	for i, pl := range w.placed {
		want, err := w.coldStats(w.graphs[i], pl)
		if err != nil {
			t.Fatal(err)
		}
		want[0].KernelLaunches++
		w.refs[jobKey(i, pl)] = want
	}
	p, err := w.measure(500*time.Millisecond, rand.New(rand.NewSource(3)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.failed == 0 {
		t.Fatalf("no job failed its stats check out of %d", p.attempted)
	}
	if bad := w.finish(); len(bad) != 0 {
		t.Fatalf("ledger: %v", bad)
	}
}

// TestWrongSplitFailsTheOp proves the execute-verified reference comes
// from the template graph, not the compiled one: a split piece that
// computes the wrong thing changes the execution and a reference run on
// the compiled graph alike, and must still fail the op.
func TestWrongSplitFailsTheOp(t *testing.T) {
	docs := tinyDocs(t)
	d := docs["execute-verified"]
	var p executeParams
	if err := json.Unmarshal(d.Params, &p); err != nil {
		t.Fatal(err)
	}
	// 128x128 images do not fit a 128 KiB device whole, so the edge
	// operators split into pieces.
	p.EdgeDims, p.EdgeDevice = []int{128}, "mem=131072"
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	d.Params = raw
	w, err := newExecuteVerified(d)
	if err != nil {
		t.Fatal(err)
	}
	// A wrong split: one piece of the first case's compiled graph
	// computes a different remap than the template.
	w.compiled = func(cs *execCase) {
		if len(w.cases) > 0 {
			return
		}
		for _, n := range cs.c.Graph.Nodes {
			if n.Op.Kind() == "remap" && n.Out.Region != graph.FullRegion(n.Out.Root().Shape()) {
				n.Op = ops.NewRemap(-2, 0, -1e9, 1e9)
				return
			}
		}
		t.Fatalf("%s: no split remap piece in the compiled graph", cs.desc)
	}
	if err := w.setup(3); err != nil {
		t.Fatal(err)
	}
	cs := w.cases[0]
	rep, err := cs.svc.Execute(context.Background(), cs.c, cs.in)
	if err != nil {
		t.Fatal(err)
	}
	compiledRef, err := exec.RunReference(cs.c.Graph, cs.in)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.verify(&execCase{want: compiledRef}, rep.Outputs); err != nil {
		t.Fatalf("a reference on the compiled graph should follow the wrong piece: %v", err)
	}
	if w.verify(cs, rep.Outputs) == nil {
		t.Fatal("the wrong piece passed the check against the template reference")
	}
	ph, err := w.measure(100*time.Millisecond, rand.New(rand.NewSource(3)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ph.failed == 0 || ph.failed == ph.attempted {
		t.Fatalf("failed %d of %d ops, want exactly the corrupted case's", ph.failed, ph.attempted)
	}
}
