// Package golden is the test helper behind the byte-identity regression
// tests: it fingerprints a run's observable outputs and compares the
// fingerprints with a committed JSON file.
package golden

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"cable/internal/fault"
	"cable/internal/obs"
)

// Variant is one flavour every golden row runs in.
type Variant struct {
	Name   string
	Fault  fault.Config
	Verify bool
}

// Variants are the clean, fault-injected and unverified flavours.
var Variants = []Variant{
	{"clean", fault.Config{}, true},
	{"fault", fault.Config{BitRate: 1e-3, Seed: 7}, false},
	{"noverify", fault.Config{}, false},
}

// HashRun fingerprints one run: every result field, the private
// registry's deterministic snapshot and the flight recorder's windows
// and timeline.
func HashRun(t testing.TB, result interface{}, reg *obs.Registry, rec *obs.Recorder) string {
	t.Helper()
	return Hash(t, struct {
		Result  interface{}
		Metrics obs.Snapshot
		Flight  obs.RecorderDump
	}{result, reg.Snapshot(false), rec.Dump()})
}

// Hash fingerprints v through its JSON encoding (encoding/json sorts map
// keys, so equal values hash equal).
func Hash(t testing.TB, v interface{}) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Check compares got (row name → hash) with the JSON file at path and
// fails the test on any difference. CABLE_UPDATE_GOLDEN=1 rewrites the
// file instead: only a deliberate behaviour change should.
func Check(t testing.TB, path string, got map[string]string) {
	t.Helper()
	if os.Getenv("CABLE_UPDATE_GOLDEN") != "" {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%s has %d rows, test computes %d", path, len(want), len(got))
	}
	for name, h := range got {
		if want[name] != h {
			t.Errorf("%s: hash %s, golden %s", name, h, want[name])
		}
	}
}
