package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func sampleTimeline() *timelineFile {
	return &timelineFile{
		Window: 512,
		Cells: []cellTimeline{
			{
				Cell: "memlink/bzip2/abcdef", Now: 4096,
				Events: []event{
					{VT: 1, Kind: "encode", Track: "cable", Class: "diff1", Bits: 120, Skip: false},
					{VT: 1, Kind: "decode", Track: "cable", Bits: 120},
					{VT: 2, Kind: "encode", Track: "cable", Class: "raw", Bits: 512, Skip: true},
					{VT: 3, Kind: "fault", Track: "cable"},
					{VT: 3, Kind: "degrade", Track: "cable", Bits: 520},
				},
			},
			{
				Cell: "multichip/gcc/123456", Now: 2048,
				Events: []event{
					{VT: 7, Kind: "wb-encode", Track: "link1", Bits: 64},
					{VT: 9, Kind: "wb-decode", Track: "link0", Bits: 64},
				},
			},
		},
	}
}

func TestConvertShape(t *testing.T) {
	tf := convert(sampleTimeline())
	if tf.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", tf.DisplayTimeUnit)
	}
	var spans, instants, meta int
	pids := map[int]bool{}
	for _, e := range tf.TraceEvents {
		pids[e.Pid] = true
		switch e.Ph {
		case "X":
			spans++
			if e.Dur <= 0 {
				t.Fatalf("span %q has no duration", e.Name)
			}
		case "i":
			instants++
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	// 5 spans (3 encodes/decodes + 2 writebacks), 2 instants,
	// metadata: 2 process names + 3 thread names.
	if spans != 5 {
		t.Fatalf("spans = %d, want 5", spans)
	}
	if instants != 2 {
		t.Fatalf("instants = %d, want 2", instants)
	}
	if meta != 5 {
		t.Fatalf("metadata events = %d, want 5", meta)
	}
	// Cells land on pids 1..N.
	if len(pids) != 2 || !pids[1] || !pids[2] {
		t.Fatalf("pids = %v, want 1 and 2", pids)
	}
}

// TestConvertRejectsNonTimeline: JSON that is not a -timeline dump is
// an error, not an empty or metadata-only trace.
func TestConvertRejectsNonTimeline(t *testing.T) {
	for name, in := range map[string]string{
		"windows dump": `{"window":512,"cells":[{"cell":"memlink/gcc/ab","now":9,"tracks":[{"name":"cable","windows":[]}]}]}`,
		"empty object": `{}`,
		"array":        `[]`,
	} {
		if tl, err := readTimeline(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted as a timeline of %d cells", name, len(tl.Cells))
		}
	}
	// A run that recorded nothing is still a timeline.
	if _, err := readTimeline(strings.NewReader(`{"window":512,"cells":[{"cell":"c","now":0,"events":[]}]}`)); err != nil {
		t.Errorf("empty timeline rejected: %v", err)
	}
}

// TestConvertValidates: the converter's output passes the validator
// (the same pairing the CI smoke runs), and stays deterministic.
func TestConvertValidates(t *testing.T) {
	a, err := json.Marshal(convert(sampleTimeline()))
	if err != nil {
		t.Fatal(err)
	}
	if err := validateTrace(a); err != nil {
		t.Fatalf("converted trace invalid: %v", err)
	}
	b, err := json.Marshal(convert(sampleTimeline()))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("conversion is not deterministic")
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []string{
		`[]`,                             // array, not object
		`{}`,                             // no traceEvents
		`{"traceEvents":[{"ph":"X"}]}`,   // missing name
		`{"traceEvents":[{"name":"x"}]}`, // missing ph
		`{"traceEvents":[{"name":"x","ph":"X","ts":1,"pid":0,"tid":0}]}`,  // span without dur
		`{"traceEvents":[{"name":"x","ph":"i","ts":-1,"pid":0,"tid":0}]}`, // negative ts
		`{"traceEvents":[{"name":"x","ph":"i","ts":1,"tid":0}]}`,          // missing pid
	}
	for _, s := range bad {
		if err := validateTrace([]byte(s)); err == nil {
			t.Fatalf("validator accepted %s", s)
		}
	}
	good := `{"traceEvents":[{"name":"p","ph":"M","pid":1,"tid":0,"args":{"name":"cell"}},` +
		`{"name":"encode","ph":"X","ts":1,"dur":1,"pid":1,"tid":1}]}`
	if err := validateTrace([]byte(good)); err != nil {
		t.Fatalf("validator rejected a good trace: %v", err)
	}
}

func TestParseArgs(t *testing.T) {
	in, out, v := parseArgs([]string{"-in", "a.json", "-o", "b.json"})
	if in != "a.json" || out != "b.json" || v != "" {
		t.Fatalf("got %q %q %q", in, out, v)
	}
	_, _, v = parseArgs([]string{"-validate", "t.json"})
	if v != "t.json" {
		t.Fatalf("validate = %q", v)
	}
}
