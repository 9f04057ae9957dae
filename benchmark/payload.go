package main

import (
	_ "embed"
	"fmt"

	"cable/internal/workload"
	"cable/internal/workload/spec"
)

const lineSize = workload.LineSize

// mixSpecJSON is the harness's own copy of the two-client bursty mix,
// so that edits under examples/ cannot move the benchmark.
//
//go:embed workloads/mix.json
var mixSpecJSON []byte

// traceModels are the SPEC models whose fill streams make up the trace
// payload, in equal sequential parts.
var traceModels = []string{"mcf", "dealII", "lbm"}

// modelLines appends n lines of one model's access stream to dst: the
// bytes a link-attached codec sees when it carries that program's
// fills. The seed selects the generator instance.
func modelLines(dst []byte, model string, seed, n int) ([]byte, error) {
	g, err := workload.New(model, seed, 0)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		dst = append(dst, g.LineData(g.Next().LineAddr)...)
	}
	return dst, nil
}

// appendTrace appends `lines` lines of mcf, dealII and lbm traffic in
// equal sequential parts (the last model takes the remainder).
func appendTrace(dst []byte, seed, lines int) ([]byte, error) {
	part := lines / len(traceModels)
	for i, m := range traceModels {
		n := part
		if i == len(traceModels)-1 {
			n = lines - part*i
		}
		var err error
		if dst, err = modelLines(dst, m, seed, n); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// newMix builds the merged two-client stream of the harness's mix spec.
// The seed sets the arrival seed and decorrelates the clients' address
// generators.
func newMix(seed, lines int) (*spec.Mix, error) {
	w, err := spec.Parse(mixSpecJSON)
	if err != nil {
		return nil, fmt.Errorf("workloads/mix.json: %w", err)
	}
	w.Seed = uint64(seed)
	return spec.NewMix(w, spec.MixOptions{Budget: uint64(lines), Variant: uint64(seed)})
}

// appendMix appends `lines` lines of the mix: two interleaved clients,
// one of which changes its content model half-way through.
func appendMix(dst []byte, seed, lines int) ([]byte, error) {
	m, err := newMix(seed, lines)
	if err != nil {
		return nil, err
	}
	for i := 0; i < lines; i++ {
		em, err := m.Next()
		if err != nil {
			return nil, err
		}
		dst = append(dst, m.LineData(em.Access.LineAddr)...)
	}
	return dst, nil
}

// The payloads of the stream workloads, each built into one buffer of
// its final size.
func tracePayload(seed, lines int) ([]byte, error) {
	return appendTrace(make([]byte, 0, lines*lineSize), seed, lines)
}

func mixPayload(seed, lines int) ([]byte, error) {
	return appendMix(make([]byte, 0, lines*lineSize), seed, lines)
}

// bothPayload is the first half of each of the two payloads above,
// trace first.
func bothPayload(seed, lines int) ([]byte, error) {
	t, err := appendTrace(make([]byte, 0, lines*lineSize), seed, lines/2)
	if err != nil {
		return nil, err
	}
	return appendMix(t, seed, lines-lines/2)
}
