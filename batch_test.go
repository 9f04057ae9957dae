package cable_test

// Equivalence contract of the batched encode API: EncodeFills must be
// observably indistinguishable from the one-line EncodeFill loop — same
// payload bytes, same latencies, same HomeStats/RemoteStats, same metric
// totals, same flight-recorder windows — at every batch size. Both are
// entry points over one pipeline (internal/core/batch.go), so what this
// pins is the part that does differ: when counters are flushed, and that
// nothing carries over a batch boundary. Decoding has one entry point,
// so both sides decode per line with DecodeFill. internal/core's
// reference encoder pins the payload bits themselves.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"cable"
	"cable/internal/bits"
	"cable/internal/obs"
	"cable/internal/sim"
)

// batchFillSeq builds the shared driving sequence: cycling addresses,
// alternating coherence states (exercising both sides of the home-sync
// branch), rotating replacement ways.
func batchFillSeq(addrs []uint64, ways, n int) []cable.BatchFill {
	reqs := make([]cable.BatchFill, n)
	for i := range reqs {
		state := cable.Shared
		if i%3 == 2 {
			state = cable.Exclusive
		}
		reqs[i] = cable.BatchFill{
			LineAddr: addrs[(i*7)%len(addrs)],
			State:    state,
			ReplWay:  i % ways,
		}
	}
	return reqs
}

type encOut struct {
	img     []byte
	nbits   int
	lat     cable.FillLatency
	decoded []byte
}

// attachRecorder puts a fresh flight recorder on both link ends of a
// warm chip and returns a function yielding its window dump. Windows
// only: the timeline interleaves encodes and decodes per line in the
// one-line loop and per batch in the batched one, by construction.
func attachRecorder(chip *sim.Chip) func() []obs.TrackDump {
	rec := obs.NewRecorder(obs.FlightConfig{})
	track := rec.Track("cable")
	chip.Home.SetRecorder(rec, track)
	chip.Remote.SetRecorder(rec, track)
	return func() []obs.TrackDump { return rec.Dump().Tracks }
}

func registryJSON(t *testing.T, reg *obs.Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf, false); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEncodeFillsMatchesSequential drives identical warm chips with an
// identical request stream — one through the per-line API, the others
// through EncodeFills at several batch sizes including a non-divisor
// tail — and requires bit-identical payloads, equal latency models,
// equal Stats, byte-equal metric dumps, and equal flight-recorder
// windows (encodes, classes, skips, payload bits, decodes: the batched
// entry points once recorded none of them).
func TestEncodeFillsMatchesSequential(t *testing.T) {
	const n = 257

	regSeq := obs.NewRegistry()
	seqChip, addrs := warmChip(t, regSeq)
	ways := seqChip.LLC.Config().Ways
	idxBits, wayBits := seqChip.LLC.IndexBits(), seqChip.LLC.WayBits()
	reqs := batchFillSeq(addrs, ways, n)
	seqWindows := attachRecorder(seqChip)

	var w bits.Writer
	seq := make([]encOut, n)
	for i, rq := range reqs {
		p, lat, err := seqChip.Home.EncodeFill(rq.LineAddr, rq.State, rq.ReplWay)
		if err != nil {
			t.Fatal(err)
		}
		enc := p.MarshalInto(&w, idxBits, wayBits)
		data, err := seqChip.Remote.DecodeFill(p)
		if err != nil {
			t.Fatal(err)
		}
		seq[i] = encOut{
			img:     append([]byte(nil), enc.Data...),
			nbits:   enc.NBits,
			lat:     lat,
			decoded: append([]byte(nil), data...),
		}
	}
	seqHome := seqChip.Home.Stats
	seqRemote := seqChip.Remote.Stats
	seqDump := registryJSON(t, regSeq)
	seqWin := seqWindows()
	if w := seqWin[0].Windows[0]; w.Encodes != n || w.Decodes != n {
		t.Fatalf("sequential run recorded %d encodes, %d decodes, want %d each", w.Encodes, w.Decodes, n)
	}

	for _, k := range []int{1, 5, 32} {
		t.Run(fmt.Sprintf("batch=%d", k), func(t *testing.T) {
			reg := obs.NewRegistry()
			chip, addrs2 := warmChip(t, reg)
			if !reflect.DeepEqual(addrs2, addrs) {
				t.Fatal("warm chips disagree on resident lines; simulation is not deterministic")
			}
			windows := attachRecorder(chip)
			got := make([]encOut, 0, n)
			payloads := make([]cable.Payload, 0, k)
			for off := 0; off < n; off += k {
				end := off + k
				if end > n {
					end = n
				}
				payloads = payloads[:0]
				err := chip.Home.EncodeFills(reqs[off:end], func(i int, p cable.Payload, lat cable.FillLatency) {
					enc := p.MarshalInto(&w, idxBits, wayBits)
					got = append(got, encOut{
						img:   append([]byte(nil), enc.Data...),
						nbits: enc.NBits,
						lat:   lat,
					})
					payloads = append(payloads, p.Clone())
				})
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range payloads {
					data, err := chip.Remote.DecodeFill(p)
					if err != nil {
						t.Fatal(err)
					}
					got[off+i].decoded = append([]byte(nil), data...)
				}
			}
			if len(got) != n {
				t.Fatalf("emit called %d times, want %d", len(got), n)
			}
			for i := range got {
				if got[i].nbits != seq[i].nbits || !bytes.Equal(got[i].img, seq[i].img) {
					t.Fatalf("req %d: payload image differs from sequential encode (%d bits vs %d)", i, got[i].nbits, seq[i].nbits)
				}
				if got[i].lat != seq[i].lat {
					t.Fatalf("req %d: latency %+v, sequential %+v", i, got[i].lat, seq[i].lat)
				}
				if !bytes.Equal(got[i].decoded, seq[i].decoded) {
					t.Fatalf("req %d: batch decode differs from sequential decode", i)
				}
			}
			if chip.Home.Stats != seqHome {
				t.Errorf("HomeStats diverge:\nbatch: %+v\nseq:   %+v", chip.Home.Stats, seqHome)
			}
			if chip.Remote.Stats != seqRemote {
				t.Errorf("RemoteStats diverge:\nbatch: %+v\nseq:   %+v", chip.Remote.Stats, seqRemote)
			}
			if dump := registryJSON(t, reg); !bytes.Equal(dump, seqDump) {
				t.Errorf("metric totals diverge from sequential run:\n--- batch ---\n%s\n--- seq ---\n%s", dump, seqDump)
			}
			if win := windows(); !reflect.DeepEqual(win, seqWin) {
				t.Errorf("flight-recorder windows diverge:\nbatch: %+v\nseq:   %+v", win, seqWin)
			}
		})
	}
}

// TestEncodeFillsMissingLine pins error behavior: a request for a line
// absent from the home cache fails with the already-emitted prefix's
// effects intact, exactly like a sequential caller stopping at the
// failure.
func TestEncodeFillsMissingLine(t *testing.T) {
	reg := obs.NewRegistry()
	chip, addrs := warmChip(t, reg)
	ways := chip.LLC.Config().Ways

	// An address with the L4's tag bits flipped cannot be resident.
	var bogus uint64 = addrs[0] ^ (1 << 40)
	reqs := batchFillSeq(addrs, ways, 4)
	reqs = append(reqs, cable.BatchFill{LineAddr: bogus, State: cable.Shared})

	fills0 := chip.Home.Stats.Fills
	ctr0 := reg.Snapshot(false).Counters["core.fills"]
	emitted := 0
	err := chip.Home.EncodeFills(reqs, func(i int, p cable.Payload, lat cable.FillLatency) { emitted++ })
	if err == nil {
		t.Fatal("EncodeFills succeeded on a non-resident line")
	}
	if emitted != 4 {
		t.Fatalf("emitted %d payloads before the failure, want 4", emitted)
	}
	if d := chip.Home.Stats.Fills - fills0; d != 4 {
		t.Fatalf("Stats.Fills grew by %d, want 4 (failed line must not count)", d)
	}
	if d := reg.Snapshot(false).Counters["core.fills"] - ctr0; d != 4 {
		t.Fatalf("core.fills grew by %d after failed batch, want 4 (prefix flushed)", d)
	}
}
