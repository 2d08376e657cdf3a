package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/templates"
)

// deviceSpec resolves a device name as the served command spells it, plus
// mem=<bytes> for a custom arena.
func deviceSpec(name string) (gpu.Spec, error) {
	switch name {
	case "c870":
		return gpu.TeslaC870(), nil
	case "8800":
		return gpu.GeForce8800GTX(), nil
	}
	var bytes int64
	if _, err := fmt.Sscanf(name, "mem=%d", &bytes); err == nil && bytes > 0 {
		return gpu.Custom(name, bytes), nil
	}
	return gpu.Spec{}, fmt.Errorf("unknown device %q", name)
}

// edgeGraph builds the paper's find_edges template (16x16 kernels, four
// orientations) for a square or rectangular image.
func edgeGraph(h, w int) (*graph.Graph, *templates.EdgeBuffers, error) {
	return templates.EdgeDetect(templates.EdgeConfig{
		ImageH: h, ImageW: w, KernelSize: 16, Orientations: 4, Combine: templates.CombineMax})
}

// scaledCNN returns Small CNN with every hidden conv layer's plane count
// multiplied by m (the 2-plane output layer is kept), which scales the
// operator count roughly by m².
func scaledCNN(h, w int, m float64) templates.CNNConfig {
	cfg := templates.SmallCNN(h, w)
	cfg.Name = "small CNN x" + strconv.FormatFloat(m, 'f', 3, 64)
	cfg.Layers = append([]templates.CNNLayer(nil), cfg.Layers...)
	for i, l := range cfg.Layers {
		if l.Kind == templates.LayerConv && l.OutPlanes > 2 {
			cfg.Layers[i].OutPlanes = max(1, int(math.Round(float64(l.OutPlanes)*m)))
		}
	}
	return cfg
}

// planDigest hashes a plan's step list: kind, buffer and node of every
// step, in order.
func planDigest(p *sched.Plan) string {
	h := sha256.New()
	for _, s := range p.Steps {
		b, n := -1, -1
		if s.Buf != nil {
			b = s.Buf.ID
		}
		if s.Node != nil {
			n = s.Node.ID
		}
		fmt.Fprintf(h, "%d:%d:%d;", s.Kind, b, n)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// floatsMB converts a float count to megabytes (10^6 bytes).
func floatsMB(floats int64) float64 { return float64(floats) * 4 / 1e6 }
