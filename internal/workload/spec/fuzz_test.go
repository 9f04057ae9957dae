package spec

import (
	"errors"
	"testing"
)

// FuzzParseSpec is the CI contract for the DSL's front door: arbitrary
// bytes must never panic the parser, and every rejection must be a
// typed ErrInvalid — so CLI callers can always distinguish a malformed
// spec from an I/O failure.
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(exampleJSON))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version": 1}`))
	f.Add([]byte(`{"version": 1, "name": "x", "clients": [{"id": "a", "arrival": {"process": "weibull", "shape": 1e308}, "content": {"base": "gcc"}}]}`))
	f.Add([]byte(`{"version": 1, "name": "x", "clients": [{"id": "a", "rate_fraction": 1e-300, "arrival": {"process": "gamma", "cv": 100}, "content": {"base": "lbm", "phase_len": 1}}]}`))
	f.Add([]byte(`[1, 2, 3]`))
	f.Add([]byte(`null`))
	f.Add([]byte("\x00\xff CBLT"))
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := Parse(data)
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("untyped parse error: %v", err)
			}
			return
		}
		// Accepted specs must be usable: a short mix walk must not
		// panic either.
		m, err := NewMix(w, MixOptions{Budget: 64})
		if err != nil {
			return
		}
		for i := 0; i < 64; i++ {
			if _, err := m.Next(); err != nil {
				break
			}
		}
	})
}
