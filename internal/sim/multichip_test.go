package sim

import "testing"

func quickMultiChip(bench string) MultiChipConfig {
	cfg := DefaultMultiChipConfig(bench)
	cfg.LLCBytes = 128 << 10
	cfg.Accesses = 25000
	return cfg
}

func TestMultiChipRuns(t *testing.T) {
	res, err := RunMultiChip(quickMultiChip("zeusmp"))
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteFills == 0 {
		t.Fatal("no cross-chip fills — page interleaving broken")
	}
	if res.DirtyWBs == 0 {
		t.Fatal("no dirty write-backs crossed a link")
	}
	if res.LocalAccesses == 0 {
		t.Fatal("no local (node-0 homed) traffic")
	}
	for _, scheme := range []string{"cable", "cpack", "gzip", "none"} {
		r, ok := res.Total[scheme]
		if !ok || r.SourceBits == 0 {
			t.Fatalf("scheme %s missing or empty", scheme)
		}
	}
	if res.Ratio("cable") <= res.Ratio("cpack") {
		t.Fatalf("coherence link: cable %.2f should beat cpack %.2f",
			res.Ratio("cable"), res.Ratio("cpack"))
	}
	t.Logf("zeusmp coherence: cable=%.2f gzip=%.2f cpack=%.2f (fills=%d wbs=%d local=%d)",
		res.Ratio("cable"), res.Ratio("gzip"), res.Ratio("cpack"),
		res.RemoteFills, res.DirtyWBs, res.LocalAccesses)
}

func TestMultiChipPageInterleaving(t *testing.T) {
	// With 4 nodes and round-robin pages, roughly 3/4 of misses are
	// remote.
	res, err := RunMultiChip(quickMultiChip("soplex"))
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(res.RemoteFills) / float64(res.RemoteFills+res.LocalAccesses)
	if frac < 0.6 || frac > 0.9 {
		t.Fatalf("remote fraction %.2f, want ≈0.75", frac)
	}
}

func TestMultiChipNUMACountInsensitive(t *testing.T) {
	// §VI-E: compression ratios are largely unaffected by node count.
	ratios := map[int]float64{}
	for _, nodes := range []int{2, 4, 8} {
		cfg := quickMultiChip("dealII")
		cfg.Nodes = nodes
		res, err := RunMultiChip(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ratios[nodes] = res.Ratio("cable")
	}
	for _, nodes := range []int{4, 8} {
		rel := ratios[nodes] / ratios[2]
		if rel < 0.7 || rel > 1.4 {
			t.Fatalf("cable ratio varies too much with NUMA count: %v", ratios)
		}
	}
}

func TestMultiChipRejectsBadConfig(t *testing.T) {
	cfg := quickMultiChip("zeusmp")
	cfg.Nodes = 1
	if _, err := RunMultiChip(cfg); err == nil {
		t.Fatal("1 node should error")
	}
	cfg = quickMultiChip("nope")
	if _, err := RunMultiChip(cfg); err == nil {
		t.Fatal("unknown benchmark should error")
	}
	// Each of these must return an error, not panic inside the run.
	for name, mutate := range map[string]func(*MultiChipConfig){
		"Accesses 0":       func(c *MultiChipConfig) { c.Accesses = 0 },
		"LLC sets not 2^n": func(c *MultiChipConfig) { c.LLCBytes = 3 * 8 * 64 },
	} {
		cfg = quickMultiChip("zeusmp")
		mutate(&cfg)
		if _, err := RunMultiChip(cfg); err == nil {
			t.Fatalf("%s should error", name)
		}
	}
}

func TestMultiChipPooledWMT(t *testing.T) {
	// §IV-D super-WMT: the three links share one capacity-managed
	// pool. Correctness holds (verified per transfer); compression
	// degrades only modestly versus private full WMTs.
	private, err := RunMultiChip(quickMultiChip("dealII"))
	if err != nil {
		t.Fatal(err)
	}
	pcfg := quickMultiChip("dealII")
	pcfg.PooledWMT = true
	pcfg.PooledWMTFactor = 0.25
	pooled, err := RunMultiChip(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	pr, qr := private.Ratio("cable"), pooled.Ratio("cable")
	if qr > pr*1.05 {
		t.Fatalf("pooled %.2f should not beat private %.2f", qr, pr)
	}
	if qr < pr*0.5 {
		t.Fatalf("pooled %.2f degraded too much vs private %.2f", qr, pr)
	}
	if qr <= pooled.Ratio("cpack") {
		t.Fatalf("pooled cable %.2f should still beat cpack %.2f", qr, pooled.Ratio("cpack"))
	}
	t.Logf("coherence cable ratio: private WMTs %.2f, pooled super-WMT %.2f", pr, qr)
}
