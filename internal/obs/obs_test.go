package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterShardsSum(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	for shard := uint32(0); shard < NumShards; shard++ {
		c.Add(shard, uint64(shard))
	}
	want := uint64(NumShards * (NumShards - 1) / 2)
	if got := c.Value(); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	c.Inc(7)
	if got := c.Value(); got != want+1 {
		t.Fatalf("after Inc: %d, want %d", got, want+1)
	}
	// Out-of-range shards mask down instead of panicking.
	c.Inc(NumShards + 3)
	if got := c.Value(); got != want+2 {
		t.Fatalf("masked shard lost the increment: %d", got)
	}
}

func TestCounterIdentity(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name must return the same counter")
	}
	if r.Counter("a") == r.Counter("b") {
		t.Fatal("different names must differ")
	}
}

func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc")
	h := r.Histogram("hist")
	var wg sync.WaitGroup
	const workers, perWorker = 8, 10000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(shard uint32) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc(shard)
				h.Observe(uint64(i))
			}
		}(NextShard())
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("hist count = %d, want %d", got, workers*perWorker)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bits")
	h.Observe(0) // bit length 0
	h.Observe(1) // 1
	h.Observe(2) // 2
	h.Observe(3) // 2
	h.Observe(1 << 20)
	s := r.Snapshot(false).Histograms["bits"]
	if s.Count != 5 || s.Sum != 6+1<<20 {
		t.Fatalf("count=%d sum=%d", s.Count, s.Sum)
	}
	if s.Log2Buckets[0] != 1 || s.Log2Buckets[1] != 1 || s.Log2Buckets[2] != 2 || s.Log2Buckets[21] != 1 {
		t.Fatalf("buckets = %v", s.Log2Buckets)
	}
	if m := h.Mean(); m < 209715 || m > 209717 {
		t.Fatalf("mean = %f", m)
	}
}

func TestVolatileExcludedFromDeterministicSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("stable").Inc(0)
	r.VolatileCounter("memo").Inc(0)
	det := r.Snapshot(false)
	if _, ok := det.Counters["memo"]; ok {
		t.Fatal("volatile counter leaked into deterministic snapshot")
	}
	if det.Counters["stable"] != 1 {
		t.Fatal("stable counter missing")
	}
	all := r.Snapshot(true)
	if all.Counters["memo"] != 1 || all.Counters["stable"] != 1 {
		t.Fatalf("full snapshot wrong: %+v", all)
	}
}

func TestJSONDeterministicAndParseable(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.two").Add(1, 2)
	r.Counter("a.one").Add(2, 1)
	r.Histogram("h").Observe(5)
	var b1, b2 bytes.Buffer
	if err := r.WriteJSON(&b1, false); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&b2, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("same state must serialize identically")
	}
	var s Snapshot
	if err := json.Unmarshal(b1.Bytes(), &s); err != nil {
		t.Fatalf("snapshot not valid JSON: %v", err)
	}
	if s.Counters["a.one"] != 1 || s.Counters["b.two"] != 2 {
		t.Fatalf("round trip lost values: %+v", s)
	}
	// Sorted keys: "a.one" must appear before "b.two".
	txt := b1.String()
	if strings.Index(txt, "a.one") > strings.Index(txt, "b.two") {
		t.Fatal("JSON keys not sorted")
	}
}

func TestReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(0, 9)
	h := r.Histogram("h")
	h.Observe(3)
	r.Reset()
	if c.Value() != 0 || h.Count() != 0 {
		t.Fatalf("reset left values: c=%d h=%d", c.Value(), h.Count())
	}
	// Identities survive the reset.
	if r.Counter("c") != c {
		t.Fatal("reset must not replace metric objects")
	}
	c.Inc(0)
	if c.Value() != 1 {
		t.Fatal("counter unusable after reset")
	}
}

func TestNextShardInRange(t *testing.T) {
	for i := 0; i < 3*NumShards; i++ {
		if s := NextShard(); s >= NumShards {
			t.Fatalf("shard %d out of range", s)
		}
	}
}

// mergeSource builds the snapshot the merge tests replay: counters and
// histograms, including zero-valued entries (Merge must
// still create those for name-set parity).
func mergeSource() Snapshot {
	src := NewRegistry()
	src.Counter("m.count").Add(0, 3)
	src.Counter("m.zero")
	src.Histogram("m.hist").Observe(5)
	src.Histogram("m.hist").Observe(300)
	src.Histogram("m.hzero")
	return src.Snapshot(false)
}

// TestConcurrentMerge drives Registry.Merge from many goroutines (run
// under -race in CI) and checks the final non-volatile snapshot equals
// the serial sum of the same merges.
func TestConcurrentMerge(t *testing.T) {
	s := mergeSource()
	const workers, perWorker = 8, 200

	serial := NewRegistry()
	for i := 0; i < workers*perWorker; i++ {
		serial.Merge(s)
	}

	conc := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				conc.Merge(s)
			}
		}()
	}
	wg.Wait()

	want, err := json.Marshal(serial.Snapshot(false))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(conc.Snapshot(false))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("concurrent merge diverged from serial sum:\n got %s\nwant %s", got, want)
	}
	merged := conc.Snapshot(false)
	if got := merged.Counters["m.count"]; got != 3*workers*perWorker {
		t.Errorf("m.count = %d after %d merges of 3", got, workers*perWorker)
	}
	_, c := merged.Counters["m.zero"]
	_, h := merged.Histograms["m.hzero"]
	if !c || !h {
		t.Errorf("zero-valued names not created by Merge: counter %v histogram %v", c, h)
	}
}
